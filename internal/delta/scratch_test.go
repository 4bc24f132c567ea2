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

// indexPairs are the inputs a sorted seed index can get wrong where a hash
// chain could not: runs that fill, overflow or share a bucket.
func indexPairs() []pair {
	rng := rand.New(rand.NewSource(10))
	text := corpus.SourceText(rng, 6000)
	// One seed, "abcd", at a hundred places with nothing else in common: its
	// bucket outgrows maxChain, and the window of candidates slides from
	// reference positions over a mix to target positions only.
	var crowdRef, crowdTarget []byte
	for i := 0; i < 40; i++ {
		crowdRef = append(append(crowdRef, "abcd"...), byte(i), 0xFF, byte(i), 0xFE)
	}
	for i := 0; i < 90; i++ {
		crowdTarget = append(append(crowdTarget, "abcd"...), 0xFD, byte(i), 0xFC, byte(i))
	}
	// Runs of one byte between matchable text: the seeds at i and i+1 are
	// equal, and the lazy probe at i+1 must not find position i.
	var runs []byte
	for i := 0; i < 40; i++ {
		runs = append(append(runs, text[i*50:i*50+30+i%7]...), bytes.Repeat([]byte{'a' + byte(i%3)}, 5+i%13)...)
	}
	zeros := make([]byte, 1<<20)
	return []pair{
		{"all-zero-1M", zeros, zeros},
		{"all-zero-compress", nil, zeros[:70000]},
		{"crowded-bucket", crowdRef, crowdTarget},
		{"crowded-bucket-compress", nil, append(append([]byte(nil), crowdRef...), crowdTarget...)},
		{"equal-seed-runs", runs[:len(runs)/2], runs},
		{"equal-seed-runs-compress", nil, runs},
		{"match-to-end-of-ref", text[:3000], append(append([]byte("new head "), text[2000:3000]...), " and a new tail"...)},
		{"ref-is-target-tail", text[5000:], text},
		{"one-seed", []byte("abcd"), []byte("xabcdabcdy")},
	}
}

// TestEncodeMatchesReference: the pooled match-finder emits, bit for bit,
// what the per-call index emitted — over real corpus shapes in one long
// sequence, so every encode runs on scratch the previous one left behind.
func TestEncodeMatchesReference(t *testing.T) {
	ps := append(append(corpusPairs(), edgePairs()...), indexPairs()...)
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
// paths (bucket by bucket and full clear) and the retention caps.
func TestReleaseRestoresScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	em := corpus.EditModel{BurstsPer32KB: 8, BurstEdits: 4, EditSize: 30, BurstSpread: 200}
	var sparse, full bool
	for _, ref := range [][]byte{
		nil, []byte("abc"), corpus.SourceText(rng, 1000), corpus.SourceText(rng, 100_000),
		corpus.RandomText(rng, 100_000), make([]byte, maxRetainedSlots),
	} {
		n := len(ref)
		target := em.Apply(rng, ref[:min(n, 100_000)])
		m := acquire(ref, target)
		m.parse()
		m.mainFreq[7], m.offFreq[3] = 1, 1
		if len(m.order) <= sparseResetMax {
			sparse = true
		} else {
			full = true
		}
		m.release()
		for h, c := range m.table {
			if c != 0 {
				t.Fatalf("n=%d: table[%d] = %d after release", n, h, c)
			}
		}
		if m.mainFreq != [mainAlphabet]int64{} || m.offFreq != [numOffCodes]int64{} {
			t.Fatalf("n=%d: frequency tables not zeroed", n)
		}
		if m.ref != nil || m.target != nil || len(m.copies) != 0 {
			t.Fatalf("n=%d: release kept references to the caller's buffers", n)
		}
		if n == maxRetainedSlots && (m.slots != nil || m.copies != nil) || cap(m.slots) > maxRetainedSlots {
			t.Fatalf("n=%d: retained %d slots, %d copies; the cap is %d slots", n, cap(m.slots), cap(m.copies), maxRetainedSlots)
		}
	}
	if !sparse || !full {
		t.Fatalf("reset paths taken: bucket by bucket %v, full clear %v; want both", sparse, full)
	}
}

// TestResetBoundary encodes the last input release resets bucket by bucket
// and the first it clears the table for — sparseResetMax buckets in use, and
// one more — each followed by encodes that land on the matcher it left.
func TestResetBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	next := corpus.SourceText(rng, 3000)
	data := corpus.RandomText(rng, 2*sparseResetMax)
	seen := make(map[uint32]bool)
	for n := MinMatch; len(seen) <= sparseResetMax; n++ {
		if h := seedHash(data[n-MinMatch:]); seen[h] {
			continue
		} else {
			seen[h] = true
		}
		if len(seen) < sparseResetMax {
			continue
		}
		m := acquire(nil, data[:n])
		m.parse()
		if len(m.order) != len(seen) {
			t.Fatalf("%d buckets in use, want %d", len(m.order), len(seen))
		}
		m.release()
		for _, p := range []pair{{"boundary", nil, data[:n]}, {"after", next[:1500], next[1500:]}, {"after-compress", nil, next}} {
			if !bytes.Equal(Encode(p.ref, p.target), refEncode(p.ref, p.target)) {
				t.Fatalf("%d buckets, %s: Encode differs from the reference encoder", len(seen), p.name)
			}
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
	for _, m := range []Mode{Mode0, Mode2} {
		if got := alloctest.BytesPerOp(20, func() { m.Encode(ref, target) }); got >= ceiling {
			t.Errorf("mode %d: Encode of a 1 KB pair allocates %d B/op, ceiling %d", m, got, ceiling)
		}
		if got := alloctest.BytesPerOp(20, func() { m.Compress(target) }); got >= ceiling {
			t.Errorf("mode %d: Compress of 1 KB allocates %d B/op, ceiling %d", m, got, ceiling)
		}
	}

	// A large file pays for its index at most once — four bytes a position,
	// if the pooled matcher did not keep its slots — and for its copies in
	// 12-byte records: under 5 B per input byte plus the output. The parent's
	// chain and 56-byte ops came to 10.9 B per input byte on this pair.
	// Mode 2 reuses the same copy records.
	p := largePairs()[0]
	large := uint64(5*(len(p.ref)+len(p.target)) + 1<<20)
	for _, m := range []Mode{Mode0, Mode2} {
		if got := alloctest.BytesPerOp(3, func() { m.Encode(p.ref, p.target) }); got >= large {
			t.Errorf("mode %d: Encode of the %s pair allocates %d B/op, ceiling %d", m, p.name, got, large)
		}
	}
}

// BenchmarkTableReset measures the two ways release empties the table:
// zeroing k buckets one by one against one full clear. sparseResetMax sits
// where they cross (EXPERIMENTS.md, "Delta encoder working set").
func BenchmarkTableReset(b *testing.B) {
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	order := make([]int32, 1<<hashBits)
	for i, h := range rand.New(rand.NewSource(6)).Perm(len(order)) {
		order[i] = int32(h)
	}
	for _, k := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17} {
		b.Run(fmt.Sprintf("sparse/%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, h := range order[:k] {
					m.table[h] = 0
				}
			}
		})
	}
	b.Run("clear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(m.table)
		}
	})
}
