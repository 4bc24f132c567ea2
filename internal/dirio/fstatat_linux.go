//go:build linux && !mips64 && !mips64le && !loong64

package dirio

import (
	"syscall"
	"unsafe"
)

// fstatat is fstatat(2) of the NUL-terminated name in the directory fd into
// st, not following a symlink: the raw call, which passes name as it is.
func fstatat(fd int, name []byte, st *syscall.Stat_t) error {
	p, err := namePtr(name)
	if err != nil {
		return err
	}
	if _, _, errno := syscall.Syscall6(sysFstatat, uintptr(fd), uintptr(p), uintptr(unsafe.Pointer(st)), atSymlinkNofollow, 0, 0); errno != 0 {
		return errno
	}
	return nil
}
