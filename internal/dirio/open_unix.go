//go:build unix

package dirio

import (
	"io"
	"io/fs"
	"syscall"
)

// rawFile is a read-only descriptor HashFile streams a file through. It has
// none of os.File's per-file costs: no finalizer and no poller registration,
// so a small file costs the open, the reads and the close.
type rawFile struct {
	fd   int
	path string
}

// openRead opens path read-only and close-on-exec, retrying EINTR. Its error
// is an *fs.PathError, as os.Open's is.
func openRead(path string) (rawFile, error) {
	for {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err == nil {
			return rawFile{fd, path}, nil
		}
		if err != syscall.EINTR {
			return rawFile{}, &fs.PathError{Op: "open", Path: path, Err: err}
		}
	}
}

// Read reads into b, retrying EINTR, and reports io.EOF at the end of the
// file, as os.File does.
func (f rawFile) Read(b []byte) (int, error) {
	for {
		n, err := syscall.Read(f.fd, b)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, &fs.PathError{Op: "read", Path: f.path, Err: err}
		case n == 0 && len(b) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// Close releases the descriptor.
func (f rawFile) Close() error { return syscall.Close(f.fd) }
