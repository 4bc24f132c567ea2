// Package alloctest measures allocated bytes per call for the allocation
// ceilings in the delta, dirio and core tests.
package alloctest

import "runtime"

// BytesPerOp returns the least growth of MemStats.TotalAlloc over any one of
// runs calls of fn, after one warm-up call: what a call costs in steady
// state. The minimum, not the mean, because pools are emptied at arbitrary
// moments — by the garbage collector and, under the race detector, by
// sync.Pool dropping a quarter of what is Put — and a ceiling on steady-state
// scratch reuse must not trip over those refills.
func BytesPerOp(runs int, fn func()) uint64 {
	fn()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
