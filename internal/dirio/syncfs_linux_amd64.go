package dirio

// sysSyncfs is syncfs(2)'s number on linux/amd64, which the syscall package
// does not name.
const sysSyncfs = 306
