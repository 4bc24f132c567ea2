//go:build !linux

package dirio

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// The primitives on paths, for every platform but Linux: each joins the name
// to its directory's path and lstats what it is about to open, so a symlink
// is refused as on Linux, though not atomically with the open.

// node is an open file, or a directory by its path (f is nil).
type node struct {
	f    *os.File
	path string
}

// cause is the error under os's *PathError: the primitives add their own.
func cause(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return pe.Err
	}
	return err
}

// openRoot checks that path is a directory, following a symlink there: the
// root is the caller's choice, only what lies under it is confined.
func openRoot(path string) (node, error) {
	fi, err := os.Stat(path)
	if err == nil && !fi.IsDir() {
		err = &fs.PathError{Op: "open", Path: path, Err: syscall.ENOTDIR}
	}
	if err != nil {
		return node{}, err
	}
	return node{path: path}, nil
}

// openDir checks that name in d is a directory and not a symlink. One that
// is not is ErrUnsafeDir.
func openDir(d node, name []byte) (node, error) {
	path := filepath.Join(d.path, string(name[:len(name)-1]))
	fi, err := os.Lstat(path)
	if err == nil && !fi.IsDir() {
		err = ErrUnsafeDir
	}
	if err != nil {
		return node{}, &fs.PathError{Op: "open", Path: path, Err: cause(err)}
	}
	return node{path: path}, nil
}

// readDirents lists d, calling fn with each entry's NUL-terminated name and
// its kind.
func readDirents(d node, _ []byte, fn func(name []byte, kind uint8)) error {
	ents, err := os.ReadDir(d.path)
	for _, e := range ents {
		kind := kindOther
		switch {
		case e.Type().IsRegular():
			kind = kindFile
		case e.IsDir():
			kind = kindDir
		}
		fn(append([]byte(e.Name()), 0), kind)
	}
	return err
}

// lstatAt stats the NUL-terminated name in d, not following a symlink.
func lstatAt(d node, name []byte) (fileStat, error) {
	fi, err := os.Lstat(filepath.Join(d.path, string(name[:len(name)-1])))
	if err != nil {
		return fileStat{}, cause(err)
	}
	return statFrom(fi), nil
}

// statFrom is the part of fi the package reads.
func statFrom(fi fs.FileInfo) fileStat {
	kind := kindOther
	switch {
	case fi.Mode().IsRegular():
		kind = kindFile
	case fi.IsDir():
		kind = kindDir
	}
	return fileStat{kind: kind, perm: fi.Mode().Perm(), size: fi.Size(), mtime: fi.ModTime(), ctime: ctimeOf(fi)}
}

// openFile opens the regular file name in d read-only. A symlink there is
// refused with ELOOP, not followed.
func openFile(d node, name []byte) (node, error) {
	st, err := lstatAt(d, name)
	if err == nil && st.kind != kindFile && st.kind != kindDir {
		err = syscall.ELOOP
	}
	if err != nil {
		return node{}, err
	}
	f, err := os.Open(filepath.Join(d.path, string(name[:len(name)-1])))
	if err != nil {
		return node{}, cause(err)
	}
	return node{f: f}, nil
}

// createExcl creates the file name in d, mode 0600, failing if it exists.
func createExcl(d node, name string) (node, error) {
	path := filepath.Join(d.path, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return node{}, err
	}
	return node{f, path}, nil
}

// mkdirAt makes the directory name in d, mode 0755.
func mkdirAt(d node, name string) error { return os.Mkdir(filepath.Join(d.path, name), 0o755) }

// renameAt renames from to to, both in d.
func renameAt(d node, from, to string) error {
	return os.Rename(filepath.Join(d.path, from), filepath.Join(d.path, to))
}

// unlinkAt removes the file name in d, or with dir set the empty directory.
func unlinkAt(d node, name string, _ bool) error { return os.Remove(filepath.Join(d.path, name)) }

// read reads into b and reports io.EOF at the end of the file.
func (n node) read(b []byte) (int, error) { return n.f.Read(b) }

// write writes all of b.
func (n node) write(b []byte) error {
	_, err := n.f.Write(b)
	return err
}

// stat is the stat of n's open file.
func (n node) stat() (fileStat, error) {
	fi, err := n.f.Stat()
	if err != nil {
		return fileStat{}, err
	}
	return statFrom(fi), nil
}

// chmod sets n's permission bits.
func (n node) chmod(perm fs.FileMode) error { return n.f.Chmod(perm) }

// sync is fsync(2) of n: its content and, for a directory, its entries.
func (n node) sync() error {
	if n.f != nil {
		return n.f.Sync()
	}
	d, err := os.Open(n.path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// syncFS does nothing where there is no syncfs(2): the fsync of each file
// that follows it is the whole contract.
func (n node) syncFS() error { return nil }

// close releases an open file; a directory holds nothing.
func (n node) close() error {
	if n.f == nil {
		return nil
	}
	return n.f.Close()
}
