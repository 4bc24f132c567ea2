//go:build linux && (mips64 || mips64le || loong64)

package dirio

import (
	"io/fs"
	"syscall"
)

// ctimeOf extracts the inode change time (ctime) in Unix nanoseconds from
// the platform stat, 0 when the info does not carry one. Unlike mtime,
// ctime cannot be set from userspace, so it survives tools that restore
// timestamps after a rewrite.
func ctimeOf(info fs.FileInfo) int64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return int64(st.Ctim.Sec)*1_000_000_000 + int64(st.Ctim.Nsec) // int32 fields on 386
	}
	return 0
}
