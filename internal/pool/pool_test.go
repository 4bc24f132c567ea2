package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != Parallelism() {
		t.Fatalf("Workers(0) = %d, want Parallelism %d", got, Parallelism())
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	// A configured count is honored up to the host's real parallelism and
	// clamped beyond it: extra goroutines on a saturated host only add
	// scheduling overhead (the BENCH_scan regression).
	SetParallelism(4)
	defer SetParallelism(0)
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d, want 3", got)
	}
	if got := Workers(7); got != 4 {
		t.Fatalf("Workers(7) = %d, want 4 (clamped)", got)
	}
	if got := Workers(0); got != 4 {
		t.Fatalf("Workers(0) = %d, want 4", got)
	}
}

func TestParallelismBound(t *testing.T) {
	p := Parallelism()
	if p < 1 {
		t.Fatalf("Parallelism() = %d", p)
	}
	if gm := runtime.GOMAXPROCS(0); p > gm {
		t.Fatalf("Parallelism() = %d exceeds GOMAXPROCS %d", p, gm)
	}
	if nc := runtime.NumCPU(); p > nc {
		t.Fatalf("Parallelism() = %d exceeds NumCPU %d", p, nc)
	}
	SetParallelism(2)
	if got := Parallelism(); got != 2 {
		t.Fatalf("override: Parallelism() = %d, want 2", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != p {
		t.Fatalf("restore: Parallelism() = %d, want %d", got, p)
	}
}

// TestWorkersNeverWorseThanSerial pins the regression fix: on a
// single-parallelism host every worker count resolves to the serial path,
// so sharded execution (and its per-shard setup cost) cannot be triggered.
func TestWorkersNeverWorseThanSerial(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	for _, n := range []int{0, 1, 2, 8, 64} {
		if got := Workers(n); got != 1 {
			t.Fatalf("Workers(%d) = %d on a 1-CPU host, want 1", n, got)
		}
	}
	if s := Shards(8, 1<<20, 1<<15); s != 1 {
		t.Fatalf("Shards on a 1-CPU host = %d, want 1 (no sharding without parallelism)", s)
	}
}

// TestDoCoversAllJobs: every index runs exactly once, for serial and
// parallel worker counts.
func TestDoCoversAllJobs(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		const n = 100
		var counts [n]int32
		if err := Do(w, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, i, c)
			}
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	if err := Do(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestDoError: an error is reported; all jobs still run (no cancellation —
// per-file protocol engines must not be left mid-message).
func TestDoError(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		var ran int32
		err := Do(w, 10, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if w == 1 && ran != 4 {
			// Serial mode stops at the first error, like the legacy loops.
			t.Fatalf("serial ran %d jobs, want 4", ran)
		}
	}
}

// TestRangeFirstErrorInIndexOrder: Range covers every index once, in
// consecutive chunks, and of several failing items reports the lowest
// index's error whatever the completion order; one worker stops there.
func TestRangeFirstErrorInIndexOrder(t *testing.T) {
	SetParallelism(8)
	defer SetParallelism(0)
	const n = 1000
	for _, w := range []int{1, 2, 8} {
		var counts [n]int32
		err := Range(w, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
				if i == 900 || i == 77 || i == 500 {
					return fmt.Errorf("item %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "item 77" {
			t.Fatalf("workers=%d: err = %v, want item 77's", w, err)
		}
		ran := 0
		for i, c := range counts {
			ran += int(c)
			if c > 1 || c == 0 && i <= 77 {
				t.Fatalf("workers=%d: item %d ran %d times", w, i, c)
			}
		}
		if w == 1 && ran != 78 {
			t.Fatalf("serial ran %d items, want 78", ran)
		}
	}
	if err := Range(4, 0, func(int, int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestShardBounds: shards partition [0, n) exactly, are balanced to within
// one item, and respect the minimum width.
func TestShardBounds(t *testing.T) {
	SetParallelism(8) // decouple shard counts from the test host's CPUs
	defer SetParallelism(0)
	for _, tc := range []struct{ workers, n, minShard, want int }{
		{8, 1 << 20, 1 << 15, 8},
		{8, 100, 1 << 15, 1}, // too small to shard
		{8, 1 << 16, 1 << 15, 2},
		{3, 30, 10, 3},
		{4, 0, 16, 1},
	} {
		s := Shards(tc.workers, tc.n, tc.minShard)
		if tc.n >= 10 && s != tc.want {
			t.Fatalf("Shards(%d,%d,%d) = %d, want %d", tc.workers, tc.n, tc.minShard, s, tc.want)
		}
		if Bound(tc.n, s, 0) != 0 || Bound(tc.n, s, s) != tc.n {
			t.Fatalf("shard bounds don't partition [0,%d)", tc.n)
		}
		prev := 0
		for i := 1; i <= s; i++ {
			b := Bound(tc.n, s, i)
			if b < prev {
				t.Fatalf("bounds not monotone at %d", i)
			}
			prev = b
		}
	}
}
