//go:build !linux

package dirio

import "os"

// syncFilesystem does nothing where there is no syncfs(2): the fsync of each
// file that follows it is the whole contract.
func syncFilesystem(*os.File) error { return nil }
