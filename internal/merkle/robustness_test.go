package merkle

import (
	"bytes"
	"math/rand"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/wire"
)

// TestInitiatorAbsorbTruncation: truncated responder messages must error,
// not panic or silently complete.
func TestInitiatorAbsorbTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	local := makeEntries(rng, 64)
	remote := append([]Entry(nil), local...)
	remote[5] = entry(remote[5].Path, "changed")

	ini := NewInitiator(Build(local, 4))
	resp := NewResponder(remote)
	msg := ini.Next()
	reply, err := resp.Respond(msg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(reply); cut++ {
		ini2 := NewInitiator(Build(local, 4))
		ini2.Next()
		if err := ini2.Absorb(reply[:cut]); err == nil && !ini2.Done() {
			// Either an error or a clean (equal-root) completion is fine;
			// silent partial progress is not.
			t.Fatalf("cut %d: truncated reply absorbed without error", cut)
		}
	}
}

// TestResponderGarbageAfterStart: node ids out of range are rejected.
func TestResponderGarbageAfterStart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	remote := makeEntries(rng, 32)
	resp := NewResponder(remote)
	ini := NewInitiator(Build(makeEntries(rng, 32), 3))
	if _, err := resp.Respond(ini.Next()); err != nil {
		t.Fatal(err)
	}
	// Hand-crafted follow-up with an absurd node id.
	bad := []byte{1, 0xFF, 0xFF, 0x7F}
	if _, err := resp.Respond(bad); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
}

// TestFuzzReconcileMessages: random corruption of the message stream must
// never panic either side.
func TestFuzzReconcileMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	local := makeEntries(rng, 100)
	remote := append([]Entry(nil), local...)
	for i := 0; i < 10; i++ {
		remote[rng.Intn(len(remote))] = entry(remote[i].Path, "mutated")
	}
	for trial := 0; trial < 100; trial++ {
		ini := NewInitiator(Build(local, DepthFor(len(local))))
		resp := NewResponder(remote)
		for step := 0; !ini.Done() && step < 20; step++ {
			msg := ini.Next()
			if rng.Intn(3) == 0 && len(msg) > 0 {
				msg = append([]byte(nil), msg...)
				msg[rng.Intn(len(msg))] ^= 1 << uint(rng.Intn(8))
			}
			reply, err := resp.Respond(msg)
			if err != nil {
				break
			}
			if rng.Intn(3) == 0 && len(reply) > 0 {
				reply = append([]byte(nil), reply...)
				reply[rng.Intn(len(reply))] ^= 1 << uint(rng.Intn(8))
			}
			if err := ini.Absorb(reply); err != nil {
				break
			}
		}
	}
}

// TestDepthZeroReconcile: degenerate single-bucket trees still work.
func TestDepthZeroReconcile(t *testing.T) {
	a := []Entry{entry("x", "1"), entry("y", "2")}
	b := []Entry{entry("x", "1"), entry("y", "CHANGED"), entry("z", "3")}
	ini := NewInitiator(Build(a, 0))
	resp := NewResponder(b)
	for !ini.Done() {
		reply, err := resp.Respond(ini.Next())
		if err != nil {
			t.Fatal(err)
		}
		if err := ini.Absorb(reply); err != nil {
			t.Fatal(err)
		}
	}
	d := ini.Diff()
	if len(d.Changed) != 1 || len(d.OnlyRemote) != 1 || len(d.OnlyLocal) != 0 {
		t.Fatalf("diff = %+v", d)
	}
}

// forgedBucketReply answers a depth-0 initiator's root with a leaf bucket
// that declares as many entries as the reply has bytes. Every entry takes at
// least 18 of them, so the count is a lie.
func forgedBucketReply(n int) []byte {
	reply := wire.AppendUvarint([]byte{0}, uint64(n)) // root differs; n entries follow
	return append(reply, bytes.Repeat([]byte{0xFF}, n)...)
}

// unsortedBucketReply answers a depth-0 initiator's root with a leaf bucket
// whose entries are not strictly ascending by path: paths in that order, each
// with an empty content.
func unsortedBucketReply(paths ...string) []byte {
	b := wire.NewBuffer(64)
	b.Bool(false) // root differs; the bucket follows
	b.Uvarint(uint64(len(paths)))
	for _, p := range paths {
		e := entry(p, "")
		b.String(e.Path)
		b.Uvarint(uint64(e.Len))
		b.Raw(e.Sum[:])
	}
	return b.Build()
}

// TestAbsorbRefusesUnsortedBucket: a TREE reply whose bucket repeats a path or
// lists two out of order fails Absorb — the merge against the local bucket
// assumes a sorted list, and would otherwise report a wrong diff.
func TestAbsorbRefusesUnsortedBucket(t *testing.T) {
	for _, paths := range [][]string{{"b", "a"}, {"a", "a"}} {
		ini := NewInitiator(Build([]Entry{entry("a", "local")}, 0))
		ini.Next()
		if err := ini.Absorb(unsortedBucketReply(paths...)); err == nil {
			t.Errorf("bucket %q absorbed: diff %+v", paths, ini.Diff())
		}
	}
}

// TestBucketCountAllocation: a TREE reply's bucket count is held to what its
// bytes can encode before the entries are allocated, so a forged count costs
// the initiator at most three times the reply (an Entry is 40 bytes, an
// encoded one at least 18).
func TestBucketCountAllocation(t *testing.T) {
	reply := forgedBucketReply(18_000)
	tree := Build(nil, 0)
	var err error
	per := alloctest.BytesPerOp(4, func() {
		ini := NewInitiator(tree)
		ini.Next()
		err = ini.Absorb(reply)
	})
	if err == nil || per > 3*uint64(len(reply)) {
		t.Fatalf("%d-byte reply forging %d entries: error %v after %d bytes allocated, want an error within %d", len(reply), 18_000, err, per, 3*len(reply))
	}
}
