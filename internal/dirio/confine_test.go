package dirio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// symlink makes link, under root, point at target, or skips the test where
// symlinks cannot be made.
func symlink(t *testing.T, target, root, link string) {
	t.Helper()
	if err := os.Symlink(target, filepath.Join(root, filepath.FromSlash(link))); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
}

// TestApplyChangesRefusesSymlinkedDir: a directory component that is a
// symlink, at the root or deeper, fails the apply with ErrUnsafeDir before
// anything is put into place, for a write and for a deletion alike: nothing
// outside the root is written or removed, the result's other file keeps its
// old content, and a directory the result would make is not made. At the parent of this change the write went through the
// symlink.
func TestApplyChangesRefusesSymlinkedDir(t *testing.T) {
	for _, link := range []string{"docs", "sub/docs"} {
		for _, c := range []struct {
			name    string
			changed map[string][]byte
			deleted []string
		}{
			{"write", map[string][]byte{"a.txt": []byte("new"), link + "/evil.txt": []byte("evil")}, nil},
			{"delete", map[string][]byte{"a.txt": []byte("new")}, []string{link + "/victim.txt"}},
			{"new directory", map[string][]byte{"a.txt": []byte("new"), "a/new/x.txt": []byte("x"), link + "/evil.txt": []byte("evil")}, nil},
		} {
			t.Run(link+"/"+c.name, func(t *testing.T) {
				root, outside := t.TempDir(), t.TempDir()
				write(t, root, "a.txt", "old")
				write(t, root, "sub/keep.txt", "k")
				write(t, outside, "victim.txt", "v")
				symlink(t, outside, root, link)
				err := ApplyChanges(root, c.changed, c.deleted)
				if !errors.Is(err, ErrUnsafeDir) {
					t.Fatalf("err = %v, want ErrUnsafeDir", err)
				}
				if ents, _ := os.ReadDir(outside); len(ents) != 1 || ents[0].Name() != "victim.txt" {
					t.Fatalf("outside the root: %v, want victim.txt alone", ents)
				}
				if got, _ := os.ReadFile(filepath.Join(root, "a.txt")); string(got) != "old" {
					t.Fatalf("a.txt = %q, want the old content", got)
				}
				if _, err := os.Lstat(filepath.Join(root, "a")); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("a directory of the refused result was made: %v", err)
				}
			})
		}
	}
}

// TestNulInPathIsRefused: a path with a NUL byte in a component, which the
// kernel would read as ending there ("..\x00x" as ".."), is refused by every
// read and by ApplyChanges, and nothing outside the root is read, written or
// made, however many such components it chains.
func TestNulInPathIsRefused(t *testing.T) {
	above := t.TempDir()
	root := filepath.Join(above, "root")
	write(t, above, "evil.txt", "secret")
	write(t, root, "x/evil.txt", "inside")
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	c := tree.Cursor()
	defer c.Close()
	for _, rel := range []string{"..\x00x/evil.txt", "x/..\x00y/..\x00z/evil.txt", "evil.txt\x00"} {
		if data, err := tree.Load(rel); err == nil {
			t.Errorf("Tree.Load(%q) = %q, want it refused", rel, data)
		}
		if data, err := c.Load(rel); err == nil {
			t.Errorf("Cursor.Load(%q) = %q, want it refused", rel, data)
		}
		if _, _, err := tree.HashFile(rel); err == nil {
			t.Errorf("Tree.HashFile(%q) succeeded, want it refused", rel)
		}
		if _, _, err := c.HashFile(rel); err == nil {
			t.Errorf("Cursor.HashFile(%q) succeeded, want it refused", rel)
		}
		if err := ApplyChanges(root, map[string][]byte{rel: []byte("evil")}, nil); err == nil {
			t.Errorf("ApplyChanges writing %q succeeded, want it refused", rel)
		}
		if err := ApplyChanges(root, nil, []string{rel}); err == nil {
			t.Errorf("ApplyChanges deleting %q succeeded, want it refused", rel)
		}
	}
	if got, _ := os.ReadFile(filepath.Join(above, "evil.txt")); string(got) != "secret" {
		t.Errorf("outside the root, evil.txt = %q, want it untouched", got)
	}
	if ents, _ := os.ReadDir(above); len(ents) != 2 {
		t.Errorf("outside the root: %v, want evil.txt and root alone", ents)
	}
	if got, _ := os.ReadFile(filepath.Join(root, "x", "evil.txt")); string(got) != "inside" {
		t.Errorf("x/evil.txt = %q, want it untouched", got)
	}
}

// TestBackslashInPath: where the platform's separator is a backslash, the
// path primitives' filepath.Join would take a\..\..\x for a path out of the
// root, so every read and ApplyChanges refuse a path holding one. On Linux,
// where a\b is one legal name, the same paths are written and read as any
// other.
func TestBackslashInPath(t *testing.T) {
	above := t.TempDir()
	root := filepath.Join(above, "root")
	write(t, above, "x", "secret")
	write(t, root, "keep.txt", "kept")
	refused := filepath.Separator == '\\'
	for _, rel := range []string{`a\b`, `a\..\..\x`} {
		if err := checkPath(rel); (err != nil) != refused {
			t.Errorf("checkPath(%q) = %v, want refused %v", rel, err, refused)
		}
		err := ApplyChanges(root, map[string][]byte{rel: []byte("evil")}, nil)
		if (err != nil) != refused {
			t.Fatalf("ApplyChanges writing %q: err = %v, want refused %v", rel, err, refused)
		}
		tree, _, err := OpenTree(root)
		if err != nil {
			t.Fatal(err)
		}
		data, lerr := tree.Load(rel)
		_, _, herr := tree.HashFile(rel)
		if refused {
			if lerr == nil || herr == nil {
				t.Errorf("%q: Load err = %v, HashFile err = %v, want both refused", rel, lerr, herr)
			}
			continue
		}
		if lerr != nil || herr != nil || string(data) != "evil" {
			t.Errorf("%q: Load = %q (%v), HashFile err = %v, want the written file", rel, data, lerr, herr)
		}
	}
	if got, _ := os.ReadFile(filepath.Join(above, "x")); string(got) != "secret" {
		t.Errorf("outside the root, x = %q, want it untouched", got)
	}
}

// TestApplyChangesReplacesFinalSymlink: a symlink as a path's last component
// is replaced by the file, not followed: its target keeps its content and
// mode, and the new file takes 0644, not the link's mode.
func TestApplyChangesReplacesFinalSymlink(t *testing.T) {
	root, outside := t.TempDir(), t.TempDir()
	write(t, outside, "target.txt", "outside")
	if err := os.Chmod(filepath.Join(outside, "target.txt"), 0o600); err != nil {
		t.Fatal(err)
	}
	symlink(t, filepath.Join(outside, "target.txt"), root, "link.txt")
	if err := ApplyChanges(root, map[string][]byte{"link.txt": []byte("inside")}, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(outside, "target.txt")); string(got) != "outside" {
		t.Fatalf("the link's target = %q, want it untouched", got)
	}
	fi, err := os.Lstat(filepath.Join(root, "link.txt"))
	if err != nil || !fi.Mode().IsRegular() || fi.Mode().Perm() != 0o644 {
		t.Fatalf("link.txt: %v (%v), want a regular 0644 file", fi.Mode(), err)
	}
}

// TestReadsRefuseSymlinkSwappedIn: a file, or a directory on the way to one,
// swapped for a symlink after OpenTree is never followed: HashFile and Load,
// on the tree and through a cursor, fail with a FileError naming the path,
// ELOOP for the file and ErrUnsafeDir for the directory.
func TestReadsRefuseSymlinkSwappedIn(t *testing.T) {
	root, outside := t.TempDir(), t.TempDir()
	write(t, outside, "secret.txt", "secret")
	write(t, root, "f.txt", "f")
	write(t, root, "d/g.txt", "g")
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"f.txt", "d"} {
		if err := os.RemoveAll(filepath.Join(root, p)); err != nil {
			t.Fatal(err)
		}
	}
	symlink(t, filepath.Join(outside, "secret.txt"), root, "f.txt")
	write(t, outside, "g.txt", "secret")
	symlink(t, outside, root, "d")
	c := tree.Cursor()
	defer c.Close()
	for rel, cause := range map[string]error{"f.txt": syscall.ELOOP, "d/g.txt": ErrUnsafeDir} {
		_, _, herr := tree.HashFile(rel)
		_, lerr := tree.Load(rel)
		_, _, cherr := c.HashFile(rel)
		_, clerr := c.Load(rel)
		for i, err := range []error{herr, lerr, cherr, clerr} {
			var fe *FileError
			if !errors.As(err, &fe) || fe.Path != rel || !errors.Is(err, cause) {
				t.Errorf("%s, read %d: err = %v, want a FileError naming it, caused by %v", rel, i, err, cause)
			}
		}
	}
}

// TestReadsThroughLinkedRoot: a tree whose root is reached through a
// symlink, the caller's choice, is read as any other by every read, and a
// symlink under it is still refused, on the first read and after.
func TestReadsThroughLinkedRoot(t *testing.T) {
	real, outside, links := t.TempDir(), t.TempDir(), t.TempDir()
	write(t, real, "d/f.txt", "inside")
	write(t, outside, "f.txt", "secret")
	symlink(t, real, links, "root")
	symlink(t, outside, real, "e")
	tree, _, err := OpenTree(filepath.Join(links, "root"))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if got, err := tree.Load("d/f.txt"); err != nil || string(got) != "inside" {
			t.Fatalf("Load = %q (%v)", got, err)
		}
		if _, n, err := tree.HashFile("d/f.txt"); err != nil || n != int64(len("inside")) {
			t.Fatalf("HashFile = %d bytes (%v)", n, err)
		}
		if _, err := tree.Load("e/f.txt"); !errors.Is(err, ErrUnsafeDir) {
			t.Fatalf("through the link under the root: err = %v, want ErrUnsafeDir", err)
		}
	}
}

// TestCursorAcrossDirectories: a cursor reading files in and out of path
// order, across sibling, nested and parent directories, reads each file's own
// content.
func TestCursorAcrossDirectories(t *testing.T) {
	root := t.TempDir()
	rels := []string{"a/b/c/1", "a/b/2", "a/b/c/3", "a/x/4", "5", "a/b/c/6", "z/7", "a/8"}
	for _, rel := range rels {
		write(t, root, rel, "content of "+rel)
	}
	tree, _, err := OpenTree(root)
	if err != nil {
		t.Fatal(err)
	}
	c := tree.Cursor()
	defer c.Close()
	for round := range 2 {
		for _, rel := range rels {
			got, err := c.Load(rel)
			if err != nil || string(got) != "content of "+rel {
				t.Fatalf("round %d: %s = %q (%v)", round, rel, got, err)
			}
		}
		c.Close() // the cursor stays usable
	}
	if _, err := c.Load("a/missing/9"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory: err = %v, want fs.ErrNotExist", err)
	}
	if got, err := c.Load("a/8"); err != nil || string(got) != "content of a/8" {
		t.Fatalf("after a failed read: %q (%v)", got, err)
	}
}

// TestOpenTreeAndFingerprintAllocations: walking a 1 000-file tree three
// levels deep and hashing every file through a cursor allocates at most two
// objects a file: the walk's path string and its share of the file list.
// Through os.ReadDir, DirEntry.Info and full-path opens it took about nine.
func TestOpenTreeAndFingerprintAllocations(t *testing.T) {
	root := t.TempDir()
	const files = 1000
	for i := range files {
		write(t, root, fmt.Sprintf("d%d/e%d/f%04d.txt", i%10, i%7, i), fmt.Sprint(i))
	}
	allocs := testing.AllocsPerRun(3, func() {
		tree, werrs, err := OpenTree(root)
		if err != nil || len(werrs) != 0 || len(tree.Files()) != files {
			t.Fatal(err, werrs)
		}
		c := tree.Cursor()
		defer c.Close()
		for _, fi := range tree.Files() {
			if _, _, err := c.HashFile(fi.Path); err != nil {
				t.Fatal(err)
			}
		}
	})
	perFile := allocs / files
	t.Logf("%.2f allocations a file", perFile)
	if perFile > 2 {
		t.Errorf("OpenTree and a cursor's HashFile allocate %.2f objects a file, ceiling 2", perFile)
	}
}
