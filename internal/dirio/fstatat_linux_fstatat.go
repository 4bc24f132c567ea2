//go:build linux && (arm64 || riscv64)

package dirio

import "syscall"

// sysFstatat is the fstatat(2) whose struct is syscall.Stat_t.
const sysFstatat = syscall.SYS_FSTATAT
