//go:build linux && (amd64 || ppc64 || ppc64le || s390x)

package dirio

import "syscall"

// sysFstatat is the fstatat(2) whose struct is syscall.Stat_t.
const sysFstatat = syscall.SYS_NEWFSTATAT
