//go:build linux && !mips && !mipsle && !mips64 && !mips64le && !loong64

package dirio

// sysOpenat2 is openat2(2)'s number, the same on every Linux architecture
// but mips's, which the syscall package does not name.
const sysOpenat2 = 437
