package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/corpus"
	"msync/internal/delta"
	"msync/internal/stats"
)

// mapRounds builds both engines and drives map construction to its end,
// leaving them ready for EmitDelta / ApplyDelta.
func mapRounds(t testing.TB, fOld, fNew []byte, cfg Config) (*ServerFile, *ClientFile) {
	t.Helper()
	srv, err := NewServerFile(fNew, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientFile(fOld, len(fNew), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for srv.Active() {
		if err := cli.AbsorbHashes(srv.EmitHashes()); err != nil {
			t.Fatal(err)
		}
		more, err := srv.AbsorbReply(cli.EmitReply())
		for more && err == nil {
			if _, err = cli.AbsorbConfirm(srv.EmitConfirm()); err == nil {
				more, err = srv.AbsorbBatch(cli.EmitBatch())
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return srv, cli
}

// TestDeltaPhaseAllocCeiling: the delta phase of a 1 MB file with 1 % of it
// edited allocates less than three times the file — the client's output, the
// encoder's and decoder's own buffers, and nothing that grows by doubling.
// The parent paid ~5 MB of growslice copies per end plus fresh index tables.
func TestDeltaPhaseAllocCeiling(t *testing.T) {
	const size = 1 << 20
	rng := rand.New(rand.NewSource(12))
	old := corpus.SourceText(rng, size)
	cur := append([]byte(nil), old...)
	for i := 0; i < 40; i++ { // 40 × 256 B ≈ 1 %
		copy(cur[rng.Intn(size-256):], corpus.RandomText(rng, 256))
	}
	const runs = 12
	type engines struct {
		srv *ServerFile
		cli *ClientFile
	}
	ready := make([]engines, runs+1) // one pair per call, warm-up included
	for i := range ready {
		ready[i].srv, ready[i].cli = mapRounds(t, old, cur, DefaultConfig())
	}
	next := 0
	got := alloctest.BytesPerOp(runs, func() {
		e := ready[next]
		next++
		out, err := e.cli.ApplyDelta(e.srv.EmitDelta())
		if err != nil || !bytes.Equal(out, cur) {
			t.Fatalf("delta phase failed: %v", err)
		}
	})
	if got >= 3*size {
		t.Errorf("EmitDelta+ApplyDelta of a 1 MB file allocate %d B, ceiling %d", got, 3*size)
	}
}

// TestApplyDeltaRefusesDeclaredLength: a delta section whose stream declares
// another target length than the file's gaps add up to — here 4 GiB, in
// twelve bytes — is refused for what the file costs, not what it declares.
func TestApplyDeltaRefusesDeclaredLength(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	old := corpus.SourceText(rng, 4000)
	cur := append([]byte(nil), old...)
	copy(cur[2000:], corpus.RandomText(rng, 40))
	// A real section up to its delta stream: confirm bits, whole-file sum.
	srv, cli := mapRounds(t, old, cur, DefaultConfig())
	section := srv.EmitDelta()
	_, enc, err := cli.openDelta(section)
	if err != nil {
		t.Fatal(err)
	}
	section = binary.AppendUvarint(section[:len(section)-len(enc)], 1<<32)
	section = append(section, 0, 0, 0, 0, 0, 0, 0) // entropy-coded mode, two empty code tables
	const runs = 5
	clients := make([]*ClientFile, runs+1)
	for i := range clients {
		_, clients[i] = mapRounds(t, old, cur, DefaultConfig())
	}
	next := 0
	got := alloctest.BytesPerOp(runs, func() {
		c := clients[next]
		next++
		if _, err := c.ApplyDelta(section); !errors.Is(err, delta.ErrCorrupt) {
			t.Fatalf("ApplyDelta of a section declaring 4 GiB: %v, want delta.ErrCorrupt", err)
		}
	})
	if got >= 64<<10 {
		t.Errorf("the hostile section cost %d B, ceiling %d", got, 64<<10)
	}
}

// TestAbsorbHashesSmallFileAllocCeiling: a round's scan set-up is O(keys), not
// O(chunk buffer) or O(largest table ever): one AbsorbHashes on a 1 KB file —
// plan, candidate scratch, the search sets with their filter, the rollers —
// allocates less than 2 KB. Thousands of such files make a tiny_* session.
func TestAbsorbHashesSmallFileAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	old := corpus.SourceText(rng, 1000)
	cur := append([]byte(nil), old...)
	copy(cur[400:], corpus.RandomText(rng, 30))
	cfg := DefaultConfig()
	srv, err := NewServerFile(cur, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	hashes := srv.EmitHashes()
	const runs = 20
	clients := make([]*ClientFile, runs+1) // one per call, warm-up included
	for i := range clients {
		if clients[i], err = NewClientFile(old, len(cur), &cfg); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	got := alloctest.BytesPerOp(runs, func() {
		c := clients[next]
		next++
		if err := c.AbsorbHashes(hashes); err != nil {
			t.Fatal(err)
		}
		if len(c.candEntries) == 0 {
			t.Fatal("the scan found no candidate in a file that is mostly unchanged")
		}
	})
	if got >= 2<<10 {
		t.Errorf("AbsorbHashes on a 1 KB file allocates %d B, ceiling %d", got, 2<<10)
	}
}

// TestConcurrentSyncMatchesSerial runs 16 file syncs of very different sizes
// at once, small after large on every goroutine, against their serial
// results: pooled gather and encoder scratch must not leak bytes from one
// file into another's delta. Meaningful under -race.
func TestConcurrentSyncMatchesSerial(t *testing.T) {
	sizes := []int{400_000, 300, 70_000, 1500, 250_000, 90, 30_000, 5, 120_000, 6000, 200_000, 0, 15_000, 800, 50_000, 2500}
	rng := rand.New(rand.NewSource(13))
	type file struct{ old, cur []byte }
	files := make([]file, len(sizes))
	want := make([]int64, len(sizes))
	cfg := DefaultConfig()
	for i, n := range sizes {
		old := corpus.SourceText(rng, n)
		cur := corpus.EditModel{BurstsPer32KB: 6, BurstEdits: 4, EditSize: 40, BurstSpread: 300}.Apply(rng, old)
		files[i] = file{old, cur}
		res, err := SyncLocal(old, cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Costs.Bytes(stats.S2C, stats.PhaseDelta)
	}
	var wg sync.WaitGroup
	for g := range files {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % len(files)
				// SyncLocal itself checks the output against cur.
				res, err := SyncLocal(files[i].old, files[i].cur, cfg)
				if err != nil {
					t.Errorf("goroutine %d, %d-byte file: %v", g, sizes[i], err)
					return
				}
				if got := res.Costs.Bytes(stats.S2C, stats.PhaseDelta); got != want[i] {
					t.Errorf("goroutine %d, %d-byte file: %d delta bytes concurrently, %d serially", g, sizes[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// refSubtractIntervals is how a CDC round plan cut its regions out of each gap
// before the single merged sweep (subtractIntervals at commit 48c6d22): the parts of g not covered by any of ivs, which
// need not be sorted or disjoint. Frozen as the reference.
func refSubtractIntervals(g interval, ivs []interval) []interval {
	out := []interval{g}
	for _, iv := range ivs {
		var next []interval
		for _, o := range out {
			if iv.end <= o.start || o.end <= iv.start {
				next = append(next, o)
				continue
			}
			if o.start < iv.start {
				next = append(next, interval{o.start, iv.start})
			}
			if iv.end < o.end {
				next = append(next, interval{iv.end, o.end})
			}
		}
		out = next
	}
	return out
}

// TestCDCRegionsMatchReference: the complement of (cover ∪ probed ∪ dead),
// merged once, is exactly the regions the per-gap, per-interval subtraction
// yielded, so CDC chunk maps are unchanged.
func TestCDCRegionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		var cover []interval
		pos := rng.Intn(5)
		for n := rng.Intn(6); n > 0; n-- {
			end := pos + 1 + rng.Intn(20)
			cover = append(cover, interval{pos, end})
			pos = end + 1 + rng.Intn(40)
		}
		n := pos + rng.Intn(30)
		var skip []interval
		for k := rng.Intn(8); k > 0; k-- {
			s := rng.Intn(n + 1)
			skip = append(skip, interval{s, min(n, s+rng.Intn(30))}) // empty ones included
		}
		var want []interval
		for _, g := range complement(cover, n) {
			want = append(want, refSubtractIntervals(g, skip)...)
		}
		got := complement(mergeIntervals(append(append([]interval(nil), cover...), skip...)), n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("[0,%d) minus cover %v minus %v: got %v, reference %v", n, cover, skip, got, want)
		}
	}
}
