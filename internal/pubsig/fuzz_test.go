package pubsig

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"msync/internal/corpus"
)

// FuzzSignature feeds arbitrary bytes to the published-signature parser and
// planner: malformed blobs must fail cleanly, and any blob that parses must
// plan and reconstruct without panicking — a reader consumes signatures
// from arbitrary HTTP servers, so this surface is adversarial by default.
func FuzzSignature(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	cur := corpus.SourceText(rng, 5_000)
	f.Add(Build(cur, 512), cur[:2_000])
	f.Add(Build(cur, 128), []byte{})
	f.Add(Build(nil, 64), cur[:64])
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, []byte{})
	f.Fuzz(func(t *testing.T, sig, old []byte) {
		plan, err := NewPlan(old, sig)
		if err != nil {
			return
		}
		// With no old file nothing can match, so the plan's fetch volume
		// equals the declared file length; bound it before allocating.
		if len(old) == 0 && plan.FetchBytes() < 1<<20 {
			out, err := plan.Reconstruct(nil, func(off, length int) ([]byte, error) {
				return make([]byte, length), nil
			})
			if err == nil && len(out) != plan.FetchBytes() {
				t.Fatalf("reconstructed %d bytes, planned %d", len(out), plan.FetchBytes())
			}
		}
	})
}

// FuzzManifest checks the manifest artifact decoder: no panics, and every
// accepted manifest re-encodes canonically (encode∘parse is a fixpoint).
func FuzzManifest(f *testing.F) {
	s := NewMemStore()
	p, _ := NewPublisher(s)
	rng := rand.New(rand.NewSource(2))
	files := map[string][]byte{
		"a.txt":     corpus.SourceText(rng, 900),
		"dir/b.txt": corpus.SourceText(rng, 1_400),
	}
	p.Publish(files)
	seed, _ := s.Get(manifestKey(1))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("psm1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		enc := EncodeManifest(m)
		m2, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatal("manifest round trip drifted")
		}
	})
}

// FuzzDelta is FuzzManifest for the delta artifact decoder.
func FuzzDelta(f *testing.F) {
	s := NewMemStore()
	p, _ := NewPublisher(s)
	rng := rand.New(rand.NewSource(3))
	files := map[string][]byte{
		"a.txt": corpus.SourceText(rng, 900),
		"b.txt": corpus.SourceText(rng, 700),
	}
	p.Publish(files)
	next := map[string][]byte{
		"a.txt": corpus.SourceText(rng, 950),
		"c.txt": corpus.SourceText(rng, 300),
	}
	p.Publish(next)
	seed, _ := s.Get(deltaKey(1, 2))
	f.Add(seed)
	f.Add(seed[:len(seed)*2/3])
	f.Add([]byte("psd1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDelta(data)
		if err != nil {
			return
		}
		enc := EncodeDelta(d)
		d2, err := ParseDelta(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("delta round trip drifted")
		}
	})
}

// FuzzSyncRoundTrip drives the whole local pipeline on fuzzer-shaped
// content: build, plan, reconstruct, verify.
func FuzzSyncRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	base := corpus.SourceText(rng, 3_000)
	f.Add(base, base[:1_500], 256)
	f.Add([]byte{}, []byte{1, 2, 3}, 64)
	f.Fuzz(func(t *testing.T, cur, old []byte, blockSize int) {
		if blockSize <= 0 || blockSize > 1<<16 || len(cur) > 1<<20 {
			return
		}
		out, _, err := Sync(old, cur, blockSize)
		if err != nil {
			t.Fatalf("sync failed: %v", err)
		}
		if !bytes.Equal(out, cur) {
			t.Fatal("sync did not converge")
		}
	})
}
