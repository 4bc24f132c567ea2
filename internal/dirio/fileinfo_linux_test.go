package dirio

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFileInfoEqualsLstat: every FileInfo the walk reports holds exactly the
// Size, MTime and CTime os.Lstat reports for the file. Signature-cache keys
// are built from the three, so a difference of a nanosecond would miss every
// entry a cache holds.
func TestFileInfoEqualsLstat(t *testing.T) {
	root := t.TempDir()
	for i := range 40 {
		write(t, root, fmt.Sprintf("d%d/f%02d.txt", i%3, i), fmt.Sprint(i*i))
	}
	// A time with every nanosecond digit set, and one before the epoch.
	for rel, mtime := range map[string]time.Time{
		"d0/f00.txt": time.Unix(1_700_000_000, 123_456_789),
		"d1/f01.txt": time.Unix(-1_000, 987_654_321),
	} {
		if err := os.Chtimes(filepath.Join(root, rel), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	tree, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 || len(tree.Files()) != 40 {
		t.Fatal(err, werrs)
	}
	for _, fi := range tree.Files() {
		info, err := os.Lstat(filepath.Join(root, filepath.FromSlash(fi.Path)))
		if err != nil {
			t.Fatal(err)
		}
		st := info.Sys().(*syscall.Stat_t)
		ctime := int64(st.Ctim.Sec)*1_000_000_000 + int64(st.Ctim.Nsec)
		if fi.Size != info.Size() || fi.MTime != info.ModTime() || fi.CTime != ctime {
			t.Errorf("%s: walk (%d, %v, %d), os.Lstat (%d, %v, %d)", fi.Path, fi.Size, fi.MTime, fi.CTime, info.Size(), info.ModTime(), ctime)
		}
	}
}
