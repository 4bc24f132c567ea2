package corpus

import (
	"bytes"
	"fmt"
)

// VerifyAgainst checks that result holds exactly the files of want, with the
// same content: the convergence check of tests and experiments.
func VerifyAgainst(result, want map[string][]byte) error {
	if len(result) != len(want) {
		return fmt.Errorf("collection: file count %d, want %d", len(result), len(want))
	}
	for path, data := range want {
		got, ok := result[path]
		if !ok {
			return fmt.Errorf("collection: missing %q", path)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("collection: content mismatch for %q", path)
		}
	}
	return nil
}
