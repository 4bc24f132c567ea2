//go:build linux

package dirio

import (
	"os"
	"syscall"
)

// syncFilesystem writes back and commits everything dirty on f's filesystem:
// syncfs(2), one writeback pass, one journal commit and one cache flush
// however many files are dirty. Before Linux 5.8 it does not report a file's
// writeback error, so it only ever precedes the fsyncs that do.
func syncFilesystem(f *os.File) error {
	if _, _, errno := syscall.Syscall(sysSyncfs, f.Fd(), 0, 0); errno != 0 {
		return errno
	}
	return nil
}
