//go:build linux && !amd64 && !386

package dirio

import "syscall"

// sysSyncfs is syncfs(2)'s number; the syscall package names it on every
// Linux architecture but amd64 and 386.
const sysSyncfs = syscall.SYS_SYNCFS
