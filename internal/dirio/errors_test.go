package dirio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/md4"
)

func TestOpenTreeCollectsStatErrors(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a.txt", "a")
	write(t, root, "sub/bad.txt", "b")
	orig := statAt
	statAt = func(d node, name []byte) (fileStat, error) {
		if goName(name) == "bad.txt" {
			return fileStat{}, fs.ErrPermission
		}
		return orig(d, name)
	}
	t.Cleanup(func() { statAt = orig })

	tree, werrs, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(werrs) != 1 || werrs[0].Path != "sub/bad.txt" {
		t.Fatalf("werrs = %v, want the unstattable path", werrs)
	}
	if n := len(tree.Files()); n != 1 || tree.Files()[0].Path != "a.txt" {
		t.Fatalf("files = %v, want the stattable file only", tree.Files())
	}
}

// TestWalkErrorsSortedByPath pins the aggregate error ordering. WalkDir
// visits "a/y.txt" before "a.b/x.txt" (directory-entry order lists "a"
// before "a.b"), which is the reverse of lexical path order ('.' sorts
// before '/'), so without the explicit sort the failures would come back in
// walk order and error output would depend on tree shape.
func TestWalkErrorsSortedByPath(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a/y.txt", "1")
	write(t, root, "a.b/x.txt", "2")
	write(t, root, "ok.txt", "3")
	origStat := statAt
	statAt = func(d node, name []byte) (fileStat, error) {
		if goName(name) != "ok.txt" {
			return fileStat{}, fs.ErrPermission
		}
		return origStat(d, name)
	}
	t.Cleanup(func() { statAt = origStat })
	tree, werrs, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.Files()); n != 1 {
		t.Fatalf("files = %v, want the stattable file only", tree.Files())
	}
	if len(werrs) != 2 || werrs[0].Path != "a.b/x.txt" || werrs[1].Path != "a/y.txt" {
		t.Fatalf("werrs = %v, want [a.b/x.txt a/y.txt]", werrs)
	}
}

func TestOpenTreeMissingRoot(t *testing.T) {
	if _, _, err := OpenTree(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing root accepted")
	}
}

func TestTreeLoadWrapsPath(t *testing.T) {
	root := t.TempDir()
	write(t, root, "present.txt", "x")
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := tree.Load("absent.txt")
	var fe *FileError
	if !errors.As(lerr, &fe) || fe.Path != "absent.txt" {
		t.Fatalf("err = %v, want FileError naming the path", lerr)
	}
	if !errors.Is(lerr, fs.ErrNotExist) {
		t.Fatal("missing file must satisfy fs.ErrNotExist for the verdict logic")
	}
}

func TestTreeLoadAndHashRejectTraversal(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a.txt", "x")
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../escape", "/abs", "a/../../b", ""} {
		if _, err := tree.Load(bad); err == nil {
			t.Errorf("Load accepted %q", bad)
		}
		if _, _, err := tree.HashFile(bad); err == nil {
			t.Errorf("HashFile accepted %q", bad)
		}
	}
}

// hashSizes straddle the pooled buffer: empty, small (one-shot md4.Sum from
// the buffer), exactly one buffer, and several buffers plus a tail (streamed).
var hashSizes = []int{0, 1, 1000, hashBufSize - 1, hashBufSize, hashBufSize + 1, 2*hashBufSize + 777, 100}

func writeHashFiles(t *testing.T) (*Tree, map[string][]byte) {
	t.Helper()
	root := t.TempDir()
	files := make(map[string][]byte)
	for _, n := range hashSizes {
		rel := fmt.Sprintf("f%d.bin", n)
		files[rel] = []byte(strings.Repeat("stream me through the pooled buffer ", n/36+1)[:n])
		write(t, root, rel, string(files[rel]))
	}
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return tree, files
}

func checkHashFile(t *testing.T, tree *Tree, rel string, content []byte) {
	t.Helper()
	sum, n, err := tree.HashFile(rel)
	if err != nil {
		t.Error(err)
		return
	}
	if n != int64(len(content)) {
		t.Errorf("%s: hashed %d bytes, want %d", rel, n, len(content))
	}
	if sum != md4.Sum(content) {
		t.Errorf("%s: streamed sum differs from eager sum", rel)
	}
}

func TestHashFileMatchesEagerSum(t *testing.T) {
	tree, files := writeHashFiles(t)
	for _, n := range hashSizes { // in order: small after large reuses the buffer
		rel := fmt.Sprintf("f%d.bin", n)
		checkHashFile(t, tree, rel, files[rel])
	}
}

// TestHashFileConcurrent: 16 goroutines hashing files of very different sizes
// through the shared buffer pool must each see only their own file's bytes.
// Meaningful under -race.
func TestHashFileConcurrent(t *testing.T) {
	tree, files := writeHashFiles(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(hashSizes); k++ {
				rel := fmt.Sprintf("f%d.bin", hashSizes[(g+k)%len(hashSizes)])
				checkHashFile(t, tree, rel, files[rel])
			}
		}(g)
	}
	wg.Wait()
}

// TestHashFileAllocCeiling: hashing a small file through a cursor costs no
// allocation at all: the name goes to the open from the cursor's buffer and
// the content through the pooled one. Tree.HashFile, a cursor of its own,
// costs the root's NUL-terminated path and the cursor's two buffers. Once a
// small file cost 32 KB (io.CopyBuffer delegated to os.File.WriteTo, which
// ignores the buffer), then its path, joined and NUL-terminated (128 B here).
func TestHashFileAllocCeiling(t *testing.T) {
	tree, _ := writeHashFiles(t)
	c := tree.Cursor()
	defer c.Close()
	for _, arm := range []struct {
		name    string
		hash    func(string) ([md4.Size]byte, int64, error)
		ceiling uint64
	}{{"cursor", c.HashFile, 1}, {"tree", tree.HashFile, 256}} {
		got := alloctest.BytesPerOp(20, func() {
			if _, _, err := arm.hash("f1000.bin"); err != nil {
				t.Fatal(err)
			}
		})
		if got >= arm.ceiling {
			t.Errorf("%s: HashFile of a 1 KB file allocates %d B/op, ceiling %d", arm.name, got, arm.ceiling)
		}
	}
}

func TestTreeFilesSortedWithIdentity(t *testing.T) {
	root := t.TempDir()
	write(t, root, "b/two.txt", "22")
	write(t, root, "a/one.txt", "1")
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	files := tree.Files()
	if len(files) != 2 || files[0].Path != "a/one.txt" || files[1].Path != "b/two.txt" {
		t.Fatalf("files = %v, want sorted paths", files)
	}
	if files[0].Size != 1 || files[1].Size != 2 {
		t.Fatal("sizes wrong")
	}
	info, err := os.Stat(filepath.Join(root, "a", "one.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !files[0].MTime.Equal(info.ModTime()) {
		t.Fatal("mtime not captured")
	}
}

func TestApplyChangesWritesAndDeletes(t *testing.T) {
	root := t.TempDir()
	write(t, root, "mod.txt", "old")
	write(t, root, "keep.txt", "keep")
	write(t, root, "gone/deep/dead.txt", "bye")

	changed := map[string][]byte{
		"mod.txt":       []byte("new content"),
		"fresh/new.txt": []byte("hello"),
	}
	if err := ApplyChanges(root, changed, []string{"gone/deep/dead.txt"}); err != nil {
		t.Fatal(err)
	}
	got := loadAll(t, root)
	want := map[string]string{"mod.txt": "new content", "keep.txt": "keep", "fresh/new.txt": "hello"}
	if len(got) != len(want) {
		t.Fatalf("got %v", keys(got))
	}
	for rel, content := range want {
		if string(got[rel]) != content {
			t.Fatalf("%s = %q, want %q", rel, got[rel], content)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "gone")); !os.IsNotExist(err) {
		t.Fatal("emptied directory chain not pruned")
	}
}

func TestApplyChangesRejectsTraversal(t *testing.T) {
	root := t.TempDir()
	if err := ApplyChanges(root, map[string][]byte{"../evil": []byte("x")}, nil); err == nil {
		t.Fatal("traversal write accepted")
	}
	if err := ApplyChanges(root, nil, []string{"../evil"}); err == nil {
		t.Fatal("traversal delete accepted")
	}
}

func TestApplyChangesDeleteMissingIsFine(t *testing.T) {
	root := t.TempDir()
	if err := ApplyChanges(root, nil, []string{"never/was.txt"}); err != nil {
		t.Fatal(err)
	}
}
