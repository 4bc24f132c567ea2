package dirio

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestApplyChangesNeverTearsAFile: a write that fails after its first byte —
// here one past RLIMIT_FSIZE, in a child process that sets the limit —
// leaves the file it was replacing as it was, keeps its mode, and leaves no
// temporary file behind. Writing in place, the old file was truncated and
// held the new content's first 100 bytes. The batch's other file, which fits
// under the limit and comes first in path order, stays old too: nothing is
// renamed before every file of the batch is written.
func TestApplyChangesNeverTearsAFile(t *testing.T) {
	if root := os.Getenv("DIRIO_TORN_ROOT"); root != "" {
		var lim syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		lim.Cur = 100
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		// Go ignores SIGXFSZ, so the write past the limit returns EFBIG.
		changed := map[string][]byte{"dir/a.txt": []byte("new a"), "dir/f.txt": bytes.Repeat([]byte("new "), 1024)}
		if err := ApplyChanges(root, changed, nil); err == nil {
			t.Fatal("a 4 KB write under a 100-byte RLIMIT_FSIZE succeeded")
		}
		return
	}
	root := t.TempDir()
	old := []byte("the old content, which must survive\n")
	path := filepath.Join(root, "dir", "f.txt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	oldA := []byte("the old a\n")
	pathA := filepath.Join(root, "dir", "a.txt")
	if err := os.WriteFile(pathA, oldA, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestApplyChangesNeverTearsAFile$")
	cmd.Env = append(os.Environ(), "DIRIO_TORN_ROOT="+root)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after the failed write the file holds %q (%v), want the old %q", got, err, old)
	}
	if got, err := os.ReadFile(pathA); err != nil || !bytes.Equal(got, oldA) {
		t.Fatalf("after the failed batch the file that fit holds %q (%v), want the old %q", got, err, oldA)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 2 {
		t.Fatalf("the directory holds %d entries (%v), want only the two files", len(entries), err)
	}

	// A write that succeeds keeps the replaced file's mode.
	if err := ApplyChanges(root, map[string][]byte{"dir/f.txt": []byte("new")}, nil); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("the replaced file's mode: %v (%v), want 0600", fi.Mode(), err)
	}
}
