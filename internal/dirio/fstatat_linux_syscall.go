//go:build linux && (mips64 || mips64le || loong64)

package dirio

import "syscall"

// fstatat is fstatat(2) of the NUL-terminated name in the directory fd into
// st, not following a symlink. On these architectures the kernel fills a
// struct of its own (mips64) or has no fstatat at all (loong64 has statx),
// and the syscall package's Fstatat converts either into a Stat_t.
func fstatat(fd int, name []byte, st *syscall.Stat_t) error {
	if _, err := namePtr(name); err != nil {
		return err
	}
	return syscall.Fstatat(fd, string(name[:len(name)-1]), st, atSymlinkNofollow)
}
