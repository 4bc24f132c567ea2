//go:build linux && (mips || mipsle)

package dirio

// sysOpenat2 is openat2(2)'s number on linux/mips and linux/mipsle (o32),
// which the syscall package does not name.
const sysOpenat2 = 4437
