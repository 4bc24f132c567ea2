package dirio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"msync/internal/pool"
)

// fanOutTree writes a tree with every case the walk handles: nested
// directories (spanning several of pool.Range's chunks), symlinks to a file
// and to a directory (neither followed), a directory that cannot be read,
// files whose stat fails and a writer's orphaned temporary file. The failures are injected through readEntries and
// statAt, restored when the test ends.
func fanOutTree(t *testing.T) (root string, wantFiles, wantErrs []string) {
	t.Helper()
	root = t.TempDir()
	for i := range 150 {
		rel := fmt.Sprintf("d%d/e%d/f%03d.txt", i%3, i%5, i)
		write(t, root, rel, fmt.Sprint(i))
		if i%37 == 5 {
			wantErrs = append(wantErrs, rel)
		} else {
			wantFiles = append(wantFiles, rel)
		}
	}
	write(t, root, "a.b/x.txt", "x")
	write(t, root, "a/y.txt", "y")
	write(t, root, "locked/z.txt", "z")
	write(t, root, "d1/"+TempPrefix+"123", "orphan")
	for target, link := range map[string]string{"a/y.txt": "link.txt", "a": "linkdir"} {
		if err := os.Symlink(filepath.Join(root, target), filepath.Join(root, link)); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
	}
	wantFiles = append(wantFiles, "a.b/x.txt", "a/y.txt")
	wantErrs = append(wantErrs, "locked")
	slices.Sort(wantFiles)
	slices.Sort(wantErrs)

	origDir, origStat := readEntries, statAt
	readEntries = func(d node, buf []byte, fn func(name []byte, kind uint8)) error {
		if filepath.Base(d.path) == "locked" {
			return &fs.PathError{Op: "open", Path: d.path, Err: fs.ErrPermission}
		}
		return origDir(d, buf, fn)
	}
	statAt = func(d node, name []byte) (fileStat, error) {
		var i int
		if _, err := fmt.Sscanf(goName(name), "f%03d.txt", &i); err == nil && i%37 == 5 {
			return fileStat{}, fs.ErrPermission
		}
		return origStat(d, name)
	}
	t.Cleanup(func() { readEntries, statAt = origDir, origStat })
	return root, wantFiles, wantErrs
}

// TestOpenTreeSameAtEveryParallelism: the stats fan out over the workers,
// each into its own slot, so the files and the errors come back the same,
// in path order, however many workers ran them.
func TestOpenTreeSameAtEveryParallelism(t *testing.T) {
	root, wantFiles, wantErrs := fanOutTree(t)
	defer pool.SetParallelism(0)
	var refFiles []FileInfo
	var refErrs WalkErrors
	for _, p := range []int{1, 2, 8} {
		pool.SetParallelism(p)
		tree, werrs, err := OpenTree(root)
		if err != nil {
			t.Fatal(err)
		}
		var paths, errPaths []string
		for _, fi := range tree.Files() {
			paths = append(paths, fi.Path)
		}
		for _, we := range werrs {
			errPaths = append(errPaths, we.Path)
			if !errors.Is(we, fs.ErrPermission) {
				t.Errorf("parallelism %d: %v lost its cause", p, we)
			}
		}
		if !slices.Equal(paths, wantFiles) {
			t.Fatalf("parallelism %d: files %v, want %v", p, paths, wantFiles)
		}
		if !slices.Equal(errPaths, wantErrs) {
			t.Fatalf("parallelism %d: errors at %v, want %v", p, errPaths, wantErrs)
		}
		if refFiles == nil {
			refFiles, refErrs = tree.Files(), werrs
			continue
		}
		if !reflect.DeepEqual(tree.Files(), refFiles) || !reflect.DeepEqual(werrs, refErrs) {
			t.Fatalf("parallelism %d: the walk differs from the serial one", p)
		}
	}
}

// TestOpenTreeSharesLargeDirectory: the stats of a directory larger than
// statChunk are shared out over the idle workers in chunks, each into its
// own part, and the files and errors still come back the same, in path
// order, however many workers ran them.
func TestOpenTreeSharesLargeDirectory(t *testing.T) {
	root := t.TempDir()
	n := 3*statChunk + 10
	var wantFiles, wantErrs []string
	for i := range n {
		rel := fmt.Sprintf("big/f%04d.txt", i)
		write(t, root, rel, "")
		if i%97 == 3 {
			wantErrs = append(wantErrs, rel)
		} else {
			wantFiles = append(wantFiles, rel)
		}
	}
	orig := statAt
	statAt = func(d node, name []byte) (fileStat, error) {
		var i int
		if _, err := fmt.Sscanf(goName(name), "f%04d.txt", &i); err == nil && i%97 == 3 {
			return fileStat{}, fs.ErrPermission
		}
		return orig(d, name)
	}
	t.Cleanup(func() { statAt = orig })
	defer pool.SetParallelism(0)
	for _, p := range []int{1, 2, 8} {
		pool.SetParallelism(p)
		tree, werrs, err := OpenTree(root)
		if err != nil {
			t.Fatal(err)
		}
		var paths, errPaths []string
		for _, fi := range tree.Files() {
			paths = append(paths, fi.Path)
		}
		for _, we := range werrs {
			errPaths = append(errPaths, we.Path)
		}
		if !slices.Equal(paths, wantFiles) || !slices.Equal(errPaths, wantErrs) {
			t.Fatalf("parallelism %d: %d files and errors at %v, want %d and %v", p, len(paths), errPaths, len(wantFiles), wantErrs)
		}
	}
}

// TestWalkSkipsTempFiles: a temporary file a crash left behind is neither a
// file of the tree.
func TestWalkSkipsTempFiles(t *testing.T) {
	root := t.TempDir()
	write(t, root, "keep.txt", "k")
	write(t, root, TempPrefix+"1", "orphan")
	write(t, root, "sub/"+TempPrefix+"2", "orphan")
	tree, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 {
		t.Fatal(err, werrs)
	}
	if n := len(tree.Files()); n != 1 || tree.Files()[0].Path != "keep.txt" {
		t.Fatalf("files = %v, want keep.txt only", tree.Files())
	}
}

// TestWalkStatsEntriesOfUnknownType: on a filesystem whose directory entries
// carry no type (DT_UNKNOWN), each entry is stat'ed to learn it, and the walk
// finds what it finds where the type is given: the same files with the same
// identities, symlinks and temporary files skipped, directories descended.
func TestWalkStatsEntriesOfUnknownType(t *testing.T) {
	root := t.TempDir()
	for _, rel := range []string{"a.txt", "d/b.txt", "d/e/c.txt", "d/" + TempPrefix + "1"} {
		write(t, root, rel, rel)
	}
	if err := os.Symlink(filepath.Join(root, "d"), filepath.Join(root, "link")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	typed, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 || len(typed.Files()) != 3 {
		t.Fatal(err, werrs, typed.Files())
	}
	orig := readEntries
	readEntries = func(d node, buf []byte, fn func(name []byte, kind uint8)) error {
		return orig(d, buf, func(name []byte, _ uint8) { fn(name, kindUnknown) })
	}
	t.Cleanup(func() { readEntries = orig })
	untyped, werrs, err := OpenTree(root)
	if err != nil || len(werrs) != 0 {
		t.Fatal(err, werrs)
	}
	if !reflect.DeepEqual(untyped.Files(), typed.Files()) {
		t.Fatalf("untyped walk %v, typed %v", untyped.Files(), typed.Files())
	}
}
