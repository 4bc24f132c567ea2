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
// directories (spanning several of pool.Range's chunks), a symlink, a
// directory that cannot be read, files whose stat fails and a writer's
// orphaned temporary file. The failures are injected through readDir and
// statEntry, restored when the test ends.
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
	if err := os.Symlink(filepath.Join(root, "a", "y.txt"), filepath.Join(root, "link.txt")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	wantFiles = append(wantFiles, "a.b/x.txt", "a/y.txt")
	wantErrs = append(wantErrs, "locked")
	slices.Sort(wantFiles)
	slices.Sort(wantErrs)

	origDir, origStat := readDir, statEntry
	readDir = func(dir string) ([]fs.DirEntry, error) {
		if filepath.Base(dir) == "locked" {
			return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrPermission}
		}
		return origDir(dir)
	}
	statEntry = func(d fs.DirEntry) (fs.FileInfo, error) {
		var i int
		if _, err := fmt.Sscanf(d.Name(), "f%03d.txt", &i); err == nil && i%37 == 5 {
			return nil, fs.ErrPermission
		}
		return origStat(d)
	}
	t.Cleanup(func() { readDir, statEntry = origDir, origStat })
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

// TestWalkSkipsTempFiles: a temporary file a crash left behind is neither a
// file of the tree nor of Load.
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
	files, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files["keep.txt"] == nil {
		t.Fatalf("Load = %v, want keep.txt only", keys(files))
	}
}
