package merkle

import (
	"math/rand"
	"testing"
)

// fuzzEntries is a small fixed entry set shared by the fuzz targets.
func fuzzEntries() []Entry {
	rng := rand.New(rand.NewSource(99))
	return makeEntries(rng, 48)
}

// FuzzResponderMessages: a responder fed arbitrary initiator messages (the
// depth+root announcement and node-id requests) must never panic or index
// out of range, in both legacy and speculative mode.
func FuzzResponderMessages(f *testing.F) {
	entries := fuzzEntries()
	ini := NewInitiator(Build(entries, 4))
	f.Add(ini.Next(), false)
	f.Add([]byte{4}, false)
	f.Add([]byte{1, 0xFF, 0xFF, 0x7F}, true)
	f.Add([]byte{2, 1, 9}, true)
	f.Fuzz(func(t *testing.T, msg []byte, spec bool) {
		r := NewResponder(entries)
		r.Speculative = spec
		first := NewInitiator(Build(entries, 3)).Next()
		if _, err := r.Respond(first); err != nil {
			t.Fatalf("valid first message rejected: %v", err)
		}
		r.Respond(msg)
	})
}

// FuzzInitiatorAbsorb: an initiator absorbing arbitrary responder replies
// must never panic, in both legacy and speculative mode, and at depth 0, where
// the reply is decoded as a bucket at once.
func FuzzInitiatorAbsorb(f *testing.F) {
	entries := fuzzEntries()
	resp := NewResponder(append(entries[:40:40], entry("x/new", "n")))
	ini := NewInitiator(Build(entries, 4))
	reply, _ := resp.Respond(ini.Next())
	f.Add(reply, false)
	f.Add([]byte{0}, false)
	f.Add([]byte{0, 3}, true)
	f.Add(forgedBucketReply(1800), false)
	f.Add(unsortedBucketReply("b", "a"), false)
	f.Fuzz(func(t *testing.T, reply []byte, spec bool) {
		ini := NewInitiator(Build(entries, 4))
		ini.Speculative = spec
		ini.Next()
		ini.Absorb(reply)
		if !ini.Done() {
			ini.Next()
			ini.Absorb(reply)
		}
		// At depth 0 the root is the one leaf: the first reply is a bucket.
		leaf := NewInitiator(Build(entries, 0))
		leaf.Next()
		leaf.Absorb(reply)
	})
}

// FuzzDecodeTree: the persisted-tree decoder must reject arbitrary bytes
// gracefully (the checksum makes accidental acceptance astronomically
// unlikely) and never panic.
func FuzzDecodeTree(f *testing.F) {
	dir := f.TempDir()
	tr := Build(fuzzEntries(), 5)
	saveTree(dir, bucketDigest(nil), tr)
	if _, _, ok := loadTree(dir, 5); !ok {
		f.Fatal("seed tree failed to load")
	}
	f.Add([]byte("MTRE"), 5)
	f.Add(make([]byte, 40), 0)
	f.Fuzz(func(t *testing.T, data []byte, depth int) {
		depth &= 0x1F
		if depth > MaxDepth {
			depth = MaxDepth
		}
		decodeTree(data, depth)
	})
}
