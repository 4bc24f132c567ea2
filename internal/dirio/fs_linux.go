//go:build linux

package dirio

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// The primitives on Linux: every one resolves a single name relative to an
// open directory descriptor, so no path is resolved from the root twice and
// no symlink on the way is followed.

// node is an open directory or file: its descriptor, and its path for error
// messages.
type node struct {
	fd   int
	path string
}

const (
	dirFlags  = syscall.O_RDONLY | syscall.O_DIRECTORY | syscall.O_CLOEXEC
	readFlags = syscall.O_RDONLY | syscall.O_NOFOLLOW | syscall.O_CLOEXEC | syscall.O_LARGEFILE
)

// namePtr checks that name is NUL-terminated and holds no other NUL, which
// the kernel would take for its end, and returns a pointer to it for a
// system call: EINVAL, as the syscall package refuses such a string.
func namePtr(name []byte) (unsafe.Pointer, error) {
	if bytes.IndexByte(name, 0) != len(name)-1 {
		return nil, syscall.EINVAL
	}
	return unsafe.Pointer(&name[0]), nil
}

// openat opens the NUL-terminated name relative to d, retrying EINTR.
func openat(d node, name []byte, flags int, mode uint32) (int, error) {
	p, err := namePtr(name)
	if err != nil {
		return -1, err
	}
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(d.fd), uintptr(p), uintptr(flags), uintptr(mode), 0, 0)
		if errno == 0 {
			return int(fd), nil
		}
		if errno != syscall.EINTR {
			return -1, errno
		}
	}
}

// openRoot opens the directory at path, following a symlink there: the root
// is the caller's choice, only what lies under it is confined.
func openRoot(path string) (node, error) {
	fd, err := syscall.Open(path, dirFlags, 0)
	if err != nil {
		return node{}, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	return node{fd, path}, nil
}

// The *at(2) flags the syscall package does not export, the same on every
// Linux architecture.
const (
	atSymlinkNofollow = 0x100
	atRemovedir       = 0x200
)

// openDir opens the directory name in d without following a symlink. A name
// that is a symlink or not a directory is ErrUnsafeDir.
func openDir(d node, name []byte) (node, error) {
	path := filepath.Join(d.path, string(name[:len(name)-1]))
	fd, err := openat(d, name, dirFlags|syscall.O_NOFOLLOW, 0)
	if err == syscall.ENOTDIR || err == syscall.ELOOP {
		err = ErrUnsafeDir
	}
	if err != nil {
		return node{}, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	return node{fd, path}, nil
}

// readDirents lists d, calling fn with each entry's NUL-terminated name, in
// getdents64's buffer, and its kind from the entry's type.
func readDirents(d node, buf []byte, fn func(name []byte, kind uint8)) error {
	const (
		reclenOff = unsafe.Offsetof(syscall.Dirent{}.Reclen)
		typeOff   = unsafe.Offsetof(syscall.Dirent{}.Type)
		nameOff   = unsafe.Offsetof(syscall.Dirent{}.Name)
	)
	for {
		n, err := syscall.Getdents(d.fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return &fs.PathError{Op: "getdents", Path: d.path, Err: err}
		}
		if n <= 0 {
			return nil
		}
		for off := 0; off < n; {
			rec := buf[off:n]
			reclen := int(*(*uint16)(unsafe.Pointer(&rec[reclenOff])))
			off += reclen
			name := rec[nameOff:reclen]
			for i, c := range name {
				if c == 0 {
					name = name[:i+1]
					break
				}
			}
			if isDot(name) {
				continue
			}
			kind := kindOther
			switch rec[typeOff] {
			case syscall.DT_REG:
				kind = kindFile
			case syscall.DT_DIR:
				kind = kindDir
			case syscall.DT_UNKNOWN:
				kind = kindUnknown
			}
			fn(name, kind)
		}
	}
}

// lstatAt is fstatat(2) of the NUL-terminated name in d, not following a
// symlink.
func lstatAt(d node, name []byte) (fileStat, error) {
	var st syscall.Stat_t
	for {
		err := fstatat(d.fd, name, &st)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fileStat{}, err
		}
		return statOf(&st), nil
	}
}

// statOf is the part of st the package reads. The times are converted as
// os.Lstat converts them, so a FileInfo and an fs.FileInfo of the same file
// agree.
func statOf(st *syscall.Stat_t) fileStat {
	kind := kindOther
	switch st.Mode & syscall.S_IFMT {
	case syscall.S_IFREG:
		kind = kindFile
	case syscall.S_IFDIR:
		kind = kindDir
	}
	return fileStat{
		kind:  kind,
		perm:  fs.FileMode(st.Mode & 0o777),
		size:  st.Size,
		mtime: time.Unix(int64(st.Mtim.Sec), int64(st.Mtim.Nsec)), // int32 fields on 386
		ctime: int64(st.Ctim.Sec)*1_000_000_000 + int64(st.Ctim.Nsec),
	}
}

// openFile opens the regular file name in d read-only. A symlink there is
// not followed: the open fails with ELOOP.
func openFile(d node, name []byte) (node, error) {
	fd, err := openat(d, name, readFlags, 0)
	if err != nil {
		return node{}, err
	}
	return node{fd: fd}, nil
}

// createExcl creates the file name in d, mode 0600, failing if it exists.
func createExcl(d node, name string) (node, error) {
	path := filepath.Join(d.path, name)
	fd, err := syscall.Openat(d.fd, name, syscall.O_RDWR|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
	if err != nil {
		return node{}, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	return node{fd, path}, nil
}

// mkdirAt makes the directory name in d, mode 0755.
func mkdirAt(d node, name string) error {
	if err := syscall.Mkdirat(d.fd, name, 0o755); err != nil {
		return &fs.PathError{Op: "mkdir", Path: filepath.Join(d.path, name), Err: err}
	}
	return nil
}

// renameAt renames from to to, both in d.
func renameAt(d node, from, to string) error {
	if err := syscall.Renameat(d.fd, from, d.fd, to); err != nil {
		return &os.LinkError{Op: "rename", Old: filepath.Join(d.path, from), New: filepath.Join(d.path, to), Err: err}
	}
	return nil
}

// unlinkAt removes the file name in d, or with dir set the empty directory.
func unlinkAt(d node, name string, dir bool) error {
	flags := 0
	if dir {
		flags = atRemovedir
	}
	cname, err := syscall.BytePtrFromString(name)
	if err == nil {
		if _, _, errno := syscall.Syscall(syscall.SYS_UNLINKAT, uintptr(d.fd), uintptr(unsafe.Pointer(cname)), uintptr(flags)); errno != 0 {
			err = errno
		}
	}
	if err != nil {
		return &fs.PathError{Op: "remove", Path: filepath.Join(d.path, name), Err: err}
	}
	return nil
}

// read reads into b, retrying EINTR, and reports io.EOF at the end of the
// file.
func (n node) read(b []byte) (int, error) {
	for {
		m, err := syscall.Read(n.fd, b)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case m == 0 && len(b) > 0:
			return 0, io.EOF
		}
		return m, nil
	}
}

// write writes all of b.
func (n node) write(b []byte) error {
	for len(b) > 0 {
		m, err := syscall.Write(n.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return &fs.PathError{Op: "write", Path: n.path, Err: err}
		}
		b = b[m:]
	}
	return nil
}

// stat is fstat(2) of n.
func (n node) stat() (fileStat, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(n.fd, &st); err != nil {
		return fileStat{}, err
	}
	return statOf(&st), nil
}

// chmod sets n's permission bits.
func (n node) chmod(perm fs.FileMode) error {
	if err := syscall.Fchmod(n.fd, uint32(perm)); err != nil {
		return &fs.PathError{Op: "chmod", Path: n.path, Err: err}
	}
	return nil
}

// sync is fsync(2) of n: its content and, for a directory, its entries.
func (n node) sync() error {
	for {
		err := syscall.Fsync(n.fd)
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &fs.PathError{Op: "sync", Path: n.path, Err: err}
		}
	}
}

// syncFS writes back and commits everything dirty on n's filesystem:
// syncfs(2), one writeback pass, one journal commit and one cache flush
// however many files are dirty. Before Linux 5.8 it does not report a file's
// writeback error, so it only ever precedes the fsyncs that do.
func (n node) syncFS() error {
	if _, _, errno := syscall.Syscall(sysSyncfs, uintptr(n.fd), 0, 0); errno != 0 {
		return errno
	}
	return nil
}

// close releases the descriptor.
func (n node) close() error { return syscall.Close(n.fd) }
