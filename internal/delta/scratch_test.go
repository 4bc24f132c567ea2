package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/corpus"
)

type pair struct {
	name        string
	ref, target []byte
}

// treePairs pairs every version-2 file with its version-1 content (nil for
// a file new in version 2).
func treePairs(profile string, v1, v2 *corpus.Tree) []pair {
	old := v1.Map()
	ps := make([]pair, 0, len(v2.Files))
	for _, f := range v2.Files {
		ps = append(ps, pair{profile + "/" + f.Path, old[f.Path], f.Data})
	}
	return ps
}

// corpusPairs is every internal/corpus profile, the four adversarial ones
// included, at a scale that keeps the frozen reference encoder quick.
func corpusPairs() []pair {
	const seed = 42
	var ps []pair
	add := func(profile string, v1, v2 *corpus.Tree) { ps = append(ps, treePairs(profile, v1, v2)...) }
	v1, v2 := corpus.GCCProfile(0.2).Generate(seed)
	add("gcc", v1, v2)
	v1, v2 = corpus.EmacsProfile(0.2).Generate(seed)
	add("emacs", v1, v2)
	v1, v2 = corpus.DefaultLogAppendProfile(0.2).Generate(seed)
	add("logappend", v1, v2)
	v1, v2 = corpus.DefaultRenameProfile(0.2).Generate(seed)
	add("rename", v1, v2)
	v1, v2 = corpus.DefaultDeepTreeProfile(0.2).Generate(seed)
	add("deeptree", v1, v2)
	wc := corpus.NewWebCollection(corpus.DefaultWebProfile(0.1), seed)
	add("web", wc.Version(0), wc.Version(3))
	v1, v2 = corpus.DefaultHeavyLogProfile(0.2).Generate(seed)
	add("heavylog", v1, v2)
	v1, v2 = corpus.DefaultDBDumpProfile(0.2).Generate(seed)
	add("dbdump", v1, v2)
	v1, v2 = corpus.DefaultVMImageProfile(0.4).Generate(seed)
	add("vmimage", v1, v2)
	v1, v2 = corpus.DefaultBinaryReleaseProfile(0.2).Generate(seed)
	add("binrelease", v1, v2)
	return ps
}

// edgePairs are the inputs where the index does nothing or almost nothing.
func edgePairs() []pair {
	rng := rand.New(rand.NewSource(9))
	text := corpus.SourceText(rng, 3000)
	return []pair{
		{"both-empty", nil, nil},
		{"empty-ref", nil, text},
		{"empty-target", text, nil},
		{"ref-below-minmatch", []byte("abc"), text},
		{"target-below-minmatch", text, []byte("abc")},
		{"both-below-minmatch", []byte("ab"), []byte("ab")},
		{"exactly-minmatch", []byte("abcd"), []byte("abcd")},
		{"identical", text, text},
		{"run", []byte("x"), bytes.Repeat([]byte("x"), 5000)},
		{"incompressible", nil, corpus.RandomText(rng, 2000)},
	}
}

// TestEncodeMatchesReference: the pooled match-finder emits, bit for bit,
// what the per-call index emitted — over real corpus shapes in one long
// sequence, so every encode runs on scratch the previous one left behind.
func TestEncodeMatchesReference(t *testing.T) {
	ps := append(corpusPairs(), edgePairs()...)
	for _, p := range ps {
		got, want := Encode(p.ref, p.target), refEncode(p.ref, p.target)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (ref %d B, target %d B): Encode differs from the reference encoder: %d vs %d bytes",
				p.name, len(p.ref), len(p.target), len(got), len(want))
		}
	}
	// Compress is the empty-ref path every FULL payload and store blob takes.
	for _, p := range ps {
		if !bytes.Equal(Compress(p.target), refEncode(nil, p.target)) {
			t.Fatalf("%s: Compress differs from the reference encoder", p.name)
		}
	}
}

// TestParseOwnsItsResult: the exported Parse hands out ops that later
// encodes on the same scratch do not overwrite.
func TestParseOwnsItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := corpus.SourceText(rng, 4000)
	target := corpus.EditModel{BurstsPer32KB: 16, BurstEdits: 3, EditSize: 20, BurstSpread: 100}.Apply(rng, ref)
	ops := Parse(ref, target)
	want := refParse(ref, target)
	Encode(target, ref) // reuse the scratch for something else
	if len(ops) != len(want) {
		t.Fatalf("%d ops, reference has %d", len(ops), len(want))
	}
	for i := range ops {
		a, b := ops[i], want[i]
		if !bytes.Equal(a.Literal, b.Literal) || a.Length != b.Length || a.FromRef != b.FromRef || a.RefPos != b.RefPos || a.Dist != b.Dist {
			t.Fatalf("op %d: %+v, reference %+v", i, a, b)
		}
	}
}

// TestReleaseRestoresScratch checks release's contract directly on both reset
// paths (seed replay and full clear) and the retention caps.
func TestReleaseRestoresScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 3, 1000, replayMax / 2, replayMax/2 + 1, maxRetainedChain} {
		ref := corpus.SourceText(rng, n)
		target := corpus.EditModel{BurstsPer32KB: 8, BurstEdits: 4, EditSize: 30, BurstSpread: 200}.Apply(rng, ref)
		m := acquire(ref, target)
		m.parse()
		m.mainFreq[7], m.offFreq[3] = 1, 1
		m.release()
		for h, p := range m.head {
			if p != -1 {
				t.Fatalf("n=%d: head[%d] = %d after release", n, h, p)
			}
		}
		if m.mainFreq != [mainAlphabet]int64{} || m.offFreq != [numOffCodes]int64{} {
			t.Fatalf("n=%d: frequency tables not zeroed", n)
		}
		if m.ref != nil || m.target != nil || len(m.ops) != 0 {
			t.Fatalf("n=%d: release kept references to the caller's buffers", n)
		}
		for _, o := range m.ops[:cap(m.ops)] {
			if o.Literal != nil {
				t.Fatalf("n=%d: a retained op still aliases the target", n)
			}
		}
		if cap(m.chain) > maxRetainedChain || cap(m.ops) > maxRetainedOps {
			t.Fatalf("n=%d: retained %d chain entries, %d ops; caps are %d, %d",
				n, cap(m.chain), cap(m.ops), maxRetainedChain, maxRetainedOps)
		}
	}
}

// TestConcurrentEncodeMatchesSerial runs 16 encodes of very different sizes
// at once, repeatedly and small-after-large, so a head entry or chain link
// left by a previous user of the scratch would surface as a different delta.
// Meaningful under -race.
func TestConcurrentEncodeMatchesSerial(t *testing.T) {
	sizes := []int{1 << 19, 200, 1 << 16, 1000, 1 << 18, 64, 40_000, 3, 1 << 17, 5000, 300_000, 0, 20_000, 700, 150_000, 2000}
	rng := rand.New(rand.NewSource(6))
	ps := make([]pair, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		ref := corpus.SourceText(rng, n)
		target := corpus.EditModel{BurstsPer32KB: 8, BurstEdits: 4, EditSize: 30, BurstSpread: 200}.Apply(rng, ref)
		if i%4 == 3 {
			ref = nil // the Compress path
		}
		ps[i] = pair{fmt.Sprint(n), ref, target}
		want[i] = refEncode(ref, target)
	}
	var wg sync.WaitGroup
	for g := range ps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				// Each goroutine walks the sizes from its own start, so
				// every scratch sees large then small inputs.
				i := (g + k) % len(ps)
				if got := Encode(ps[i].ref, ps[i].target); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: concurrent Encode of the %s-byte pair differs from its serial result", g, ps[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEncodeAllocCeiling: encoding a 1 KB pair must not pay for a head table.
// The parent allocated 512 KB + chains per call; the ceiling leaves room for
// the huffman builder and the output buffer only.
func TestEncodeAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := corpus.SourceText(rng, 1024)
	target := append([]byte(nil), ref...)
	copy(target[500:], "edited here")
	const ceiling = 64 << 10
	if got := alloctest.BytesPerOp(20, func() { Encode(ref, target) }); got >= ceiling {
		t.Errorf("Encode of a 1 KB pair allocates %d B/op, ceiling %d", got, ceiling)
	}
	if got := alloctest.BytesPerOp(20, func() { Compress(target) }); got >= ceiling {
		t.Errorf("Compress of 1 KB allocates %d B/op, ceiling %d", got, ceiling)
	}
}

// BenchmarkHeadReset measures the two ways release empties the head table:
// rehashing n input bytes against one full clear. replayMax sits where they
// cross (EXPERIMENTS.md, "Per-file fixed cost").
func BenchmarkHeadReset(b *testing.B) {
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	buf := corpus.SourceText(rand.New(rand.NewSource(6)), 128<<10)
	for _, n := range []int{1 << 10, 8 << 10, 16 << 10, 32 << 10, 48 << 10, 64 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("replay/%dK", n>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.unseed(buf[:n])
			}
		})
	}
	b.Run("clear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.clearHead()
		}
	})
}
