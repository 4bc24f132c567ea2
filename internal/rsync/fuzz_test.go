package rsync

import "testing"

// FuzzPatch: arbitrary token streams against a fixed signature must never
// panic or read out of bounds.
func FuzzPatch(f *testing.F) {
	old := []byte("the old file contents used for every fuzzing iteration here")
	sig := Sign(old, 8, 2)
	f.Add(GenerateTokens(sig, []byte("the old file contents, slightly edited for the corpus")))
	f.Add([]byte{0x05})
	f.Add([]byte{0x00, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, tokens []byte) {
		out, err := Patch(old, sig, tokens)
		if err == nil && len(out) > 1<<24 {
			t.Fatalf("implausible output %d", len(out))
		}
	})
}
