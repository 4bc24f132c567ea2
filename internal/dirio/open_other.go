//go:build !unix

package dirio

import "os"

// openRead opens path for HashFile through the os package.
func openRead(path string) (*os.File, error) { return os.Open(path) }
