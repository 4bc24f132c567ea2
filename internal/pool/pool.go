// Package pool provides the shared worker-pool primitive behind the
// engine's parallel execution paths: intra-file shard scans, per-file
// engine fan-out in the collection session loops, and batched verification
// hashing. It is a thin, allocation-light layer over goroutines whose one
// job is to make "run these n independent jobs on up to w workers" a single
// call with deterministic result placement (each job writes only its own
// slot, so callers merge results in index order regardless of scheduling).
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelismOverride, when positive, replaces the host-derived parallelism
// bound (tests and benchmarks use it to force the concurrent paths on
// single-CPU machines, or serial execution on big ones).
var parallelismOverride atomic.Int64

// Parallelism reports how many goroutines can make simultaneous progress:
// min(GOMAXPROCS, physical CPUs), unless overridden with SetParallelism.
// It is the ceiling applied to every configured worker count — spawning
// more workers than the host can run concurrently never helps and, for
// sharded scans with per-shard setup cost, measurably hurts (the
// BENCH_scan regression this clamp fixes: 0.63–0.81× "speedups" from
// sharding on a GOMAXPROCS=1 host).
func Parallelism() int {
	if o := parallelismOverride.Load(); o > 0 {
		return int(o)
	}
	p := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < p {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// SetParallelism overrides the host-derived parallelism bound (n <= 0
// restores it). For tests and benchmarks only: it changes how much real
// concurrency the pool uses, never the bytes any protocol path produces.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelismOverride.Store(int64(n))
}

// Workers resolves a configured worker count: 0 (the default) means "use
// the host", negative values are clamped to 1 (the serial legacy path), and
// every positive value is capped at Parallelism() — a worker count the host
// cannot actually run concurrently would only add scheduling overhead, so
// `-workers N` is never slower than serial.
func Workers(n int) int {
	if n < 0 {
		return 1
	}
	p := Parallelism()
	if n == 0 || n > p {
		return p
	}
	return n
}

// Do runs fn(0), ..., fn(n-1) distributed over at most Workers(workers)
// goroutines and returns the first error (by completion order; callers that
// need a deterministic error should not depend on which one wins). With one
// worker or one job it runs inline on the calling goroutine, byte-for-byte
// the legacy serial path.
//
// Jobs are handed out through a channel, so uneven job costs load-balance
// across workers. fn must not touch another job's state; determinism is the
// caller's contract (write only slot i).
func Do(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	nw := Workers(workers)
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// rangeChunk is how many consecutive items Range hands a worker at once:
// enough to amortize the hand-off over per-file syscalls, few enough that
// files of uneven size still balance across workers.
const rangeChunk = 32

// Range runs fn over [0, n) in consecutive chunks of items, each as fn(lo,
// hi), on at most Workers(workers) goroutines. It returns the error of the
// lowest chunk that failed, so when fn stops at its first failing item the
// error is the first failing item's in index order. With one worker (or one
// chunk) the chunks run inline, in order, and stop at the first failure.
func Range(workers, n int, fn func(lo, hi int) error) error {
	chunks := (n + rangeChunk - 1) / rangeChunk
	errs := make([]error, chunks)
	Do(workers, chunks, func(c int) error {
		errs[c] = fn(c*rangeChunk, min(n, (c+1)*rangeChunk))
		return errs[c]
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shards splits n items into contiguous ranges for up to `workers` workers,
// keeping every shard at least minShard items wide (so per-shard setup cost
// — e.g. re-seeding a rolling window — stays amortized). It returns the
// number of shards; shard s covers [Bound(n, shards, s), Bound(n, shards,
// s+1)). At most one shard is returned when n < 2*minShard.
func Shards(workers, n, minShard int) int {
	if minShard < 1 {
		minShard = 1
	}
	s := Workers(workers)
	if max := n / minShard; s > max {
		s = max
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Bound returns the start of shard s when n items are split into `shards`
// contiguous ranges: shard s covers [Bound(n, shards, s), Bound(n, shards,
// s+1)). The split is balanced to within one item and exact: Bound(n, k, 0)
// == 0 and Bound(n, k, k) == n.
func Bound(n, shards, s int) int {
	return n * s / shards
}
