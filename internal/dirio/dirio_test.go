package dirio

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadAll reads every file OpenTree finds under root, keyed by its path.
func loadAll(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 {
		t.Fatal(err, werrs)
	}
	files := make(map[string][]byte, len(tree.Files()))
	for _, fi := range tree.Files() {
		if files[fi.Path], err = tree.Load(fi.Path); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// goName is a NUL-terminated name as the primitives pass it, as a string.
func goName(name []byte) string { return string(name[:len(name)-1]) }

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestApplyRejectsTraversal(t *testing.T) {
	root := t.TempDir()
	for _, bad := range []string{"../escape", "a/../../b", "/abs", "a//b", ""} {
		err := ApplyChanges(root, map[string][]byte{bad: []byte("evil")}, nil)
		if err == nil {
			t.Errorf("path %q accepted", bad)
		}
	}
}

// TestApplyIdempotent: applying the same result twice leaves the same tree.
func TestApplyIdempotent(t *testing.T) {
	root := t.TempDir()
	files := map[string][]byte{"x/y.txt": []byte("data")}
	for range 2 {
		if err := ApplyChanges(root, files, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := loadAll(t, root); len(got) != 1 || string(got["x/y.txt"]) != "data" {
		t.Fatalf("tree = %v, want x/y.txt only", keys(got))
	}
}

// TestLoadWalked: a cursor's read says whether the file it read is the one
// the walk listed. An untouched file is; one replaced after the walk with
// content of the same length, or written in place, is not, and neither is
// a file the walk never saw.
func TestLoadWalked(t *testing.T) {
	root := t.TempDir()
	hourAgo := time.Now().Add(-time.Hour) // what replaces a file is written now, whatever the clock's tick
	for _, rel := range []string{"a/same.txt", "a/replaced.txt", "b/rewritten.txt"} {
		write(t, root, rel, "walked content")
		if err := os.Chtimes(filepath.Join(root, rel), hourAgo, hourAgo); err != nil {
			t.Fatal(err)
		}
	}
	tree, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 {
		t.Fatal(err, werrs)
	}
	write(t, root, "a/replaced.tmp", "pushed content")
	if err := os.Rename(filepath.Join(root, "a/replaced.tmp"), filepath.Join(root, "a/replaced.txt")); err != nil {
		t.Fatal(err)
	}
	write(t, root, "b/rewritten.txt", "pushed content")
	write(t, root, "b/later.txt", "after the walk")
	c := tree.Cursor()
	defer c.Close()
	for rel, want := range map[string]bool{"a/same.txt": true, "a/replaced.txt": false, "b/rewritten.txt": false, "b/later.txt": false} {
		data, walked, err := c.LoadWalked(rel)
		if err != nil || walked != want || len(data) != len("walked content") {
			t.Errorf("%s: %q, walked %v, %v; want walked %v", rel, data, walked, err, want)
		}
	}
	if _, _, err := c.LoadWalked("a/missing.txt"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a missing file: %v, want fs.ErrNotExist", err)
	}
}
