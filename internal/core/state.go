package core

import (
	"slices"
	"sort"
	"sync"

	"msync/internal/gtest"
)

// match records one confirmed correspondence: the server block at
// [ServerOff, ServerOff+Len) equals the client substring at
// [ClientOff, ClientOff+Len). ClientOff is meaningful on the client side
// only; the server keeps it zero (it never needs it).
type match struct {
	serverOff int
	length    int
	clientOff int
}

// interval is a half-open server-space range.
type interval struct{ start, end int }

// blk is one unknown block of the recursive splitting tree.
// Structural fields (off, size, hashBits, parentBits) are maintained
// identically on both protocol sides; value fields (hashVal, parentVal) hold
// side-specific data (the client stores truncated received hashes, the
// server full hashes) and never enter shared derivations.
type blk struct {
	off, size  int
	hashBits   uint8  // bits of this block's hash the client holds (0 = none)
	hashVal    uint64 // side-specific hash value
	parentBits uint8  // bits the client holds of the parent block's hash
	parentVal  uint64 // side-specific parent hash value (client: truncated)
	parentLen  int    // parent block length (for decomposition exponent)
	isRight    bool   // right child of its parent split
}

// entry kinds in a round plan.
const (
	kGlobal = iota // full-width global hash
	kTopUp         // right sibling: only the bits not derivable
	kLocal         // local hash, neighborhood-limited comparison
	kProbe         // continuation hash at a predicted position
)

// entry is one planned hash transmission within a round.
type entry struct {
	kind     uint8
	bits     uint8
	blockIdx int // kGlobal/kTopUp/kLocal: index into state.blocks
	off      int
	size     int
	// probe prediction: candidate positions derive from these matches.
	matchIdx   int
	matchIdx2  int
	probeLeft  bool // probe extends a cover interval leftward
	edgeOff    int  // edge position for failure bookkeeping
	siblingIdx int  // kTopUp: plan index of the left sibling entry
}

// plan is the full derived structure of one round.
type plan struct {
	b       int
	entries []entry
	// phaseAOnly marks a two-phase round's probe-only first half: the next
	// wire round stays at the same block size and sends the globals.
	phaseAOnly bool
}

// RoundStats records what one map-construction round did, for diagnostics
// and experiment introspection. Both sides produce identical records.
type RoundStats struct {
	// Round is the 0-based round index; BlockSize its global block size.
	Round     int
	BlockSize int
	// Entry counts by kind.
	Globals, TopUps, Locals, Probes int
	// Candidates found by the client and matches confirmed.
	Candidates, Confirmed int
	// CoveredBytes is the cumulative covered total after the round;
	// NewBytes what this round added.
	CoveredBytes, NewBytes int
	// Bits is the map-phase wire bits this round consumed (hashes, bitmaps,
	// verification).
	Bits int64
}

// state is the per-file protocol state shared (structurally) by both sides.
type state struct {
	cfg     *Config
	n       int // length of the current (server) file
	round   int
	b       int // current block size
	blocks  []blk
	matches []match

	coverCache []interval // nil when dirty
	covered    int        // covered bytes (valid with coverCache)

	// edgeFailed maps a probe edge to the smallest probe size that failed
	// there; only strictly smaller probes are allowed later.
	edgeFailed map[int64]int

	done bool

	// Two-phase round tracking (Config.TwoPhaseRounds): phaseB marks the
	// global half; the two slices describe the preceding probe half.
	phaseB              bool
	lastProbeRanges     []interval
	lastPhaseAConfirmed []interval

	// CDC dead-zone pruning: cdcMiss holds the intervals of last round's
	// chunks that drew no candidate at all; cdcDead accumulates intervals
	// that missed at two consecutive levels — almost certainly new content —
	// which later rounds stop re-chunking (the delta phase ships them).
	// Both derive from the shared candidate bitmap, so the two sides agree.
	cdcMiss []interval
	cdcDead []interval

	// bitsSpent accumulates map-phase wire bits for this file, maintained
	// identically on both sides (used by the adaptive stop and reporting).
	bitsSpent      int64
	roundBits      int64
	coveredAtRound int

	plan  *plan
	vplan *gtest.Plan
	// candEntries maps candidate index -> plan entry index, in plan order.
	candEntries []int

	rounds []RoundStats
}

// initState prepares shared state for a file of length n.
func (st *state) initState(cfg *Config, n int) {
	st.cfg = cfg
	st.n = n
	st.b = cfg.initialBlockSize(n)
	st.edgeFailed = make(map[int64]int)
	if n == 0 {
		st.done = true
		return
	}
	if st.b < cfg.MinBlockSize || n < cfg.MinBlockSize {
		// Too small for map construction; straight to delta.
		st.done = true
		return
	}
	if cfg.MapMode == MapCDC {
		// CDC mode has no fixed splitting tree: st.b doubles as the round's
		// average chunk size, and boundaries are rediscovered from content
		// each round (emit/absorbHashesCDC). No blocks to prebuild.
		st.b = cfg.cdcInitialAvg(n)
		return
	}
	for off := 0; off < n; off += st.b {
		end := off + st.b
		if end > n {
			end = n
		}
		st.blocks = append(st.blocks, blk{off: off, size: end - off})
	}
}

func edgeKey(off int, left bool) int64 {
	k := int64(off) << 1
	if left {
		k |= 1
	}
	return k
}

// allowProbe reports whether a probe of this size at the edge is still
// worth trying (no failure recorded at this size or smaller).
func (st *state) allowProbe(edgeOff int, left bool, size int) bool {
	failed, ok := st.edgeFailed[edgeKey(edgeOff, left)]
	return !ok || size < failed
}

// mergeIntervals sorts ivs in place and merges overlapping and touching
// intervals, returning the sorted disjoint result (which reuses ivs).
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})
	merged := ivs[:0]
	for _, iv := range ivs {
		if len(merged) > 0 && iv.start <= merged[len(merged)-1].end {
			if iv.end > merged[len(merged)-1].end {
				merged[len(merged)-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// coverIntervals returns the merged covered intervals, cached.
func (st *state) coverIntervals() []interval {
	if st.coverCache != nil {
		return st.coverCache
	}
	ivs := make([]interval, 0, len(st.matches))
	for _, m := range st.matches {
		ivs = append(ivs, interval{m.serverOff, m.serverOff + m.length})
	}
	merged := mergeIntervals(ivs)
	st.coverCache = merged
	st.covered = 0
	for _, iv := range merged {
		st.covered += iv.end - iv.start
	}
	return merged
}

// gaps returns the complement of the cover within [0, n).
func (st *state) gaps() []interval { return complement(st.coverIntervals(), st.n) }

// complement returns the parts of [0, n) outside ivs, which are sorted and
// disjoint.
func complement(ivs []interval, n int) []interval {
	var out []interval
	pos := 0
	for _, iv := range ivs {
		if iv.start > pos {
			out = append(out, interval{pos, iv.start})
		}
		pos = iv.end
	}
	if pos < n {
		out = append(out, interval{pos, n})
	}
	return out
}

// coveredBytes reports total covered bytes.
func (st *state) coveredBytes() int {
	st.coverIntervals()
	return st.covered
}

// gatherPool holds the scratch a file's final delta is coded between: the
// covered bytes (reference) and the gap bytes (target).
var gatherPool = sync.Pool{New: func() any { return new([]byte) }}

// maxRetainedGather caps the scratch a release returns to gatherPool, so one
// huge file does not pin its size for the rest of the process.
const maxRetainedGather = 4 << 20

// gather concatenates src's bytes over each interval list into one pooled
// buffer, sized exactly by summing the lists first, and returns one string
// per list. release hands the buffer back: call it once delta.Encode or
// Decode has returned (neither keeps a reference to its inputs).
func gather(src []byte, lists ...[]interval) (parts [][]byte, release func()) {
	n := 0
	for _, ivs := range lists {
		for _, iv := range ivs {
			n += iv.end - iv.start
		}
	}
	bp := gatherPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	b := (*bp)[:0]
	for _, ivs := range lists {
		start := len(b)
		for _, iv := range ivs {
			b = append(b, src[iv.start:iv.end]...)
		}
		parts = append(parts, b[start:len(b):len(b)])
	}
	return parts, func() {
		if cap(b) <= maxRetainedGather {
			gatherPool.Put(bp)
		}
	}
}

// fullyCovered reports whether [off, off+size) lies inside the cover.
func (st *state) fullyCovered(off, size int) bool {
	cover := st.coverIntervals()
	i := sort.Search(len(cover), func(i int) bool { return cover[i].end > off })
	return i < len(cover) && cover[i].start <= off && off+size <= cover[i].end
}

// matchEndingAt returns the index of a match whose server range ends at off
// (latest added wins), or -1.
func (st *state) matchEndingAt(off int) int {
	for i := len(st.matches) - 1; i >= 0; i-- {
		m := st.matches[i]
		if m.serverOff+m.length == off {
			return i
		}
	}
	return -1
}

// matchStartingAt returns the index of a match whose server range starts at
// off (latest added wins), or -1.
func (st *state) matchStartingAt(off int) int {
	for i := len(st.matches) - 1; i >= 0; i-- {
		if st.matches[i].serverOff == off {
			return i
		}
	}
	return -1
}

// nearestMatch returns the index of the match whose server range is nearest
// to off, or -1. Used for local-hash position prediction.
func (st *state) nearestMatch(off int) int {
	best, bestDist := -1, 0
	for i, m := range st.matches {
		d := 0
		if off < m.serverOff {
			d = m.serverOff - off
		} else if off > m.serverOff+m.length {
			d = off - (m.serverOff + m.length)
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// buildPlan derives the round plan from shared state. Both sides call this
// with identical state and must obtain identical plans.
func (st *state) buildPlan() *plan {
	p := &plan{b: st.b}

	// 1. Continuation probes at cover-interval edges (skipped in the global
	// half of a two-phase round — they went out in the probe half).
	probeRanges := make([]interval, 0, 8)
	if st.phaseB {
		probeRanges = append(probeRanges, st.lastProbeRanges...)
	}
	if !st.phaseB && st.cfg.ContMinBlock > 0 && st.b >= st.cfg.ContMinBlock && len(st.matches) > 0 {
		probeRanges = st.planProbes(p, probeRanges)
	}

	// Two-phase rounds: if this is the probe half and probes exist, stop
	// here; the globals follow in the next wire round at the same size.
	if !st.phaseB && st.cfg.TwoPhaseRounds && st.b >= st.cfg.MinBlockSize && len(p.entries) > 0 {
		p.phaseAOnly = true
		for _, e := range p.entries {
			st.roundBits += int64(e.bits)
		}
		return p
	}

	// 2. Global / local hashes for unknown blocks (only while b is at or
	// above the global minimum).
	if st.b >= st.cfg.MinBlockSize {
		hb := st.cfg.hashBits(st.n, st.b)
		lb := st.cfg.localBits()
		firstBlockEntry := len(p.entries)
		p.entries = slices.Grow(p.entries, len(st.blocks)) // a no-op after planProbes
		for bi := range st.blocks {
			blkRef := &st.blocks[bi]
			if st.fullyCovered(blkRef.off, blkRef.size) {
				continue
			}
			if overlapsAny(probeRanges, blkRef.off, blkRef.off+blkRef.size) {
				continue // probed this round; skip the global hash (paper §5.4)
			}
			if st.phaseB && st.siblingConfirmedInPhaseA(blkRef) {
				continue // sibling matched in the probe half (paper §5.4)
			}
			kind := uint8(kGlobal)
			bits := hb
			if st.cfg.EnableLocal && lb < hb {
				if mi := st.nearestMatch(blkRef.off); mi >= 0 {
					m := st.matches[mi]
					d := dist(blkRef.off, m.serverOff, m.serverOff+m.length)
					if d > 0 && d <= st.cfg.LocalRange {
						kind = kLocal
						bits = lb
						p.entries = append(p.entries, entry{
							kind: kind, bits: uint8(bits), blockIdx: bi,
							off: blkRef.off, size: blkRef.size, matchIdx: mi, matchIdx2: -1,
						})
						continue
					}
				}
			}
			p.entries = append(p.entries, entry{
				kind: kind, bits: uint8(bits), blockIdx: bi,
				off: blkRef.off, size: blkRef.size, matchIdx: -1, matchIdx2: -1,
			})
		}
		// 3. Decomposability: convert the right sibling of each adjacent
		// global pair into a top-up entry.
		if st.cfg.Decomposable {
			for i := firstBlockEntry + 1; i < len(p.entries); i++ {
				e := &p.entries[i]
				prev := &p.entries[i-1]
				if e.kind != kGlobal || prev.kind != kGlobal {
					continue
				}
				bl := &st.blocks[e.blockIdx]
				pl := &st.blocks[prev.blockIdx]
				if !bl.isRight || bl.parentBits == 0 {
					continue
				}
				// Must be true siblings: same parent => contiguous with
				// matching parent length.
				if pl.off+pl.size != bl.off || pl.size+bl.size != bl.parentLen || pl.parentLen != bl.parentLen || pl.isRight {
					continue
				}
				eff := uint(bl.parentBits)
				if eff > uint(e.bits) {
					eff = uint(e.bits)
				}
				e.kind = kTopUp
				e.siblingIdx = i - 1
				e.bits = uint8(uint(e.bits) - eff)
			}
		}
	}

	// Account the hash payload bits (identically on both sides).
	for _, e := range p.entries {
		st.roundBits += int64(e.bits)
	}
	return p
}

// planProbes appends continuation-probe entries at cover-interval edges to p
// and returns probeRanges extended with their server ranges. The logic is
// mode-agnostic: it derives purely from shared state (gaps, matches, failure
// bookkeeping), so both halving and CDC rounds reuse it and both sides derive
// identical probe plans.
func (st *state) planProbes(p *plan, probeRanges []interval) []interval {
	gaps := st.gaps()
	// The most a round can plan is two probes a gap and, in a halving round,
	// one hash a block after them: allocated once here, not grown entry by
	// entry on both ends every round.
	p.entries = make([]entry, 0, 2*len(gaps)+len(st.blocks))
	for _, g := range gaps {
		glen := g.end - g.start
		size := st.b
		if size > glen {
			size = glen
		}
		wholeGap := size == glen
		// Right-extension probe of the region ending at g.start.
		if g.start > 0 {
			if mi := st.matchEndingAt(g.start); mi >= 0 && st.allowProbe(g.start, false, size) {
				e := entry{
					kind: kProbe, bits: uint8(st.cfg.ContBits),
					off: g.start, size: size,
					matchIdx: mi, matchIdx2: -1,
					probeLeft: false, edgeOff: g.start,
				}
				if wholeGap && g.end < st.n {
					if mi2 := st.matchStartingAt(g.end); mi2 >= 0 {
						e.matchIdx2 = mi2
					}
				}
				p.entries = append(p.entries, e)
				probeRanges = append(probeRanges, interval{e.off, e.off + e.size})
				if wholeGap {
					continue // one probe covers the whole gap
				}
			}
		}
		// Left-extension probe of the region starting at g.end.
		if g.end < st.n {
			if mi := st.matchStartingAt(g.end); mi >= 0 && st.allowProbe(g.end, true, size) {
				e := entry{
					kind: kProbe, bits: uint8(st.cfg.ContBits),
					off: g.end - size, size: size,
					matchIdx: mi, matchIdx2: -1,
					probeLeft: true, edgeOff: g.end,
				}
				if wholeGap && g.start > 0 {
					if mi2 := st.matchEndingAt(g.start); mi2 >= 0 {
						e.matchIdx2 = mi2
					}
				}
				p.entries = append(p.entries, e)
				probeRanges = append(probeRanges, interval{e.off, e.off + e.size})
			}
		}
	}
	return probeRanges
}

// cdcPlanBase starts a CDC round plan: continuation probes first (shared
// derivation, same as halving rounds), then the chunk regions — each gap minus
// the ranges probed this round. Chunk boundaries inside those regions are
// content-defined, so only the server can compute them; the caller fills in
// the chunk entries (server from fNew, client from the received lengths).
// Probe payload bits are accounted here; chunk bits by the caller.
func (st *state) cdcPlanBase() (*plan, []interval) {
	p := &plan{b: st.b}
	var probeRanges []interval
	if st.cfg.ContMinBlock > 0 && st.b >= st.cfg.ContMinBlock && len(st.matches) > 0 {
		probeRanges = st.planProbes(p, probeRanges)
	}
	for _, e := range p.entries {
		st.roundBits += int64(e.bits)
	}
	var regions []interval
	if st.b >= st.cfg.cdcFloor() {
		// What is left to chunk is the file minus what is covered, probed
		// this round, or dead: one merge and one sweep for all gaps.
		skip := append(append(append([]interval(nil), st.coverIntervals()...), probeRanges...), st.cdcDead...)
		for _, r := range complement(mergeIntervals(skip), st.n) {
			// Chunking a region shorter than two average chunks yields
			// one or two edge-bounded chunks that rarely match; the next
			// round's probes cover such remnants more cheaply.
			if r.end-r.start >= 2*st.b {
				regions = append(regions, r)
			}
		}
	}
	return p, regions
}

func overlapsAny(ivs []interval, start, end int) bool {
	for _, iv := range ivs {
		if start < iv.end && iv.start < end {
			return true
		}
	}
	return false
}

func dist(off, start, end int) int {
	if off < start {
		return start - off
	}
	if off > end {
		return off - end
	}
	return 0
}

// candidateClasses maps candidate entries to gtest classes.
func (st *state) candidateClasses() []gtest.Class {
	classes := make([]gtest.Class, len(st.candEntries))
	for i, ei := range st.candEntries {
		switch st.plan.entries[ei].kind {
		case kProbe:
			classes[i] = gtest.ClassContinuation
		case kLocal:
			classes[i] = gtest.ClassLocal
		default:
			classes[i] = gtest.ClassGlobal
		}
	}
	return classes
}

// totalHashBits returns hash width a block's hash ends at this round
// (used by the client to store reconstructed hashes).
func (st *state) entryTotalBits(e *entry) uint8 {
	if e.kind == kTopUp {
		return uint8(st.cfg.hashBits(st.n, st.b))
	}
	return e.bits
}

// finishRound applies verification outcomes and advances shared state to the
// next round. confirmedOff supplies, for each candidate index, the client
// offset (client side) or 0 (server side); confirmed flags which candidates
// verified. Both sides call it with identical structure.
func (st *state) finishRound(confirmed []bool, confirmedOff []int) {
	p := st.plan
	// Record probe failures (no candidate, or candidate dropped).
	probeConfirmed := make(map[int]bool, len(st.candEntries))
	for ci, ei := range st.candEntries {
		if confirmed[ci] {
			probeConfirmed[ei] = true
		}
	}
	candSet := make(map[int]int, len(st.candEntries))
	for ci, ei := range st.candEntries {
		candSet[ei] = ci
	}
	for ei := range p.entries {
		e := &p.entries[ei]
		if e.kind != kProbe || probeConfirmed[ei] {
			continue
		}
		key := edgeKey(e.edgeOff, e.probeLeft)
		if prev, ok := st.edgeFailed[key]; !ok || e.size < prev {
			st.edgeFailed[key] = e.size
		}
	}
	// Append confirmed matches.
	for ci, ei := range st.candEntries {
		if !confirmed[ci] {
			continue
		}
		e := &p.entries[ei]
		st.matches = append(st.matches, match{
			serverOff: e.off,
			length:    e.size,
			clientOff: confirmedOff[ci],
		})
	}
	if st.cfg.MapMode == MapCDC {
		// Dead-zone bookkeeping: coalesce this round's candidate-less chunks
		// (they tile regions, so adjacent ones merge into maximal runs); any
		// run fully inside a run that already missed last level is declared
		// dead. Chunk boundaries do not nest across levels, so the sub-level
		// containment check needs the merged runs, not individual chunks.
		var miss []interval
		for ei := range p.entries {
			e := &p.entries[ei]
			if e.kind != kGlobal {
				continue
			}
			if _, ok := candSet[ei]; ok {
				continue
			}
			iv := interval{e.off, e.off + e.size}
			if k := len(miss) - 1; k >= 0 && miss[k].end == iv.start {
				miss[k].end = iv.end
			} else {
				miss = append(miss, iv)
			}
		}
		for _, iv := range miss {
			// Only long runs qualify: a chunk holding a single edit misses at
			// every level until the level isolates the edit, so short misses
			// must keep descending. A run of >= 16 chunk-widths that missed at
			// two consecutive levels means dozens of independent chunk lookups
			// all failed — that is new content, not misalignment.
			if iv.end-iv.start < 12*st.b {
				continue
			}
			for _, prev := range st.cdcMiss {
				if prev.start <= iv.start && iv.end <= prev.end {
					st.cdcDead = append(st.cdcDead, iv)
					break
				}
			}
		}
		st.cdcMiss = miss
	}
	st.coverCache = nil // cover dirty

	// Adaptive early stop.
	newCovered := st.coveredBytes() - st.coveredAtRound
	if st.cfg.Adaptive && st.b <= st.cfg.AdaptiveMinBlock {
		if float64(st.roundBits)/8 > st.cfg.AdaptiveFactor*float64(newCovered)+1 {
			st.done = true
		}
	}

	// Record the round for diagnostics.
	rs := RoundStats{
		Round:        st.round,
		BlockSize:    st.b,
		Candidates:   len(st.candEntries),
		CoveredBytes: st.coveredBytes(),
		NewBytes:     newCovered,
		Bits:         st.roundBits,
	}
	for i := range p.entries {
		switch p.entries[i].kind {
		case kGlobal:
			rs.Globals++
		case kTopUp:
			rs.TopUps++
		case kLocal:
			rs.Locals++
		case kProbe:
			rs.Probes++
		}
	}
	for _, c := range confirmed {
		if c {
			rs.Confirmed++
		}
	}
	st.rounds = append(st.rounds, rs)

	st.bitsSpent += st.roundBits
	st.roundBits = 0
	st.coveredAtRound = st.coveredBytes()

	// Advance the schedule. A probe-only (phase A) round holds the block
	// size; the paired global round follows.
	st.round++
	if p.phaseAOnly {
		st.phaseB = true
		st.lastProbeRanges = st.lastProbeRanges[:0]
		st.lastPhaseAConfirmed = st.lastPhaseAConfirmed[:0]
		for ei := range p.entries {
			e := &p.entries[ei]
			st.lastProbeRanges = append(st.lastProbeRanges, interval{e.off, e.off + e.size})
			if probeConfirmed[ei] {
				st.lastPhaseAConfirmed = append(st.lastPhaseAConfirmed, interval{e.off, e.off + e.size})
			}
		}
	} else if st.cfg.MapMode == MapCDC {
		// CDC schedule: halve the average chunk size each round. Below the
		// chunking floor rounds continue probe-only (extending confirmed
		// regions byte-accurately) down to the continuation minimum, exactly
		// as halving does below MinBlockSize.
		st.b /= 2
		if st.b < st.cfg.cdcMinSchedule() {
			st.done = true
		}
	} else {
		st.phaseB = false
		st.lastProbeRanges = nil
		st.lastPhaseAConfirmed = nil
		nextB := st.b / 2
		if nextB >= st.cfg.MinBlockSize {
			st.splitBlocks(nextB)
		} else {
			st.blocks = nil
		}
		st.b = nextB
		if st.b < st.cfg.minScheduleBlock() {
			st.done = true
		}
	}
	if st.coveredBytes() == st.n {
		st.done = true
	}
	st.plan = nil
	st.vplan = nil
	st.candEntries = nil
}

// siblingConfirmedInPhaseA reports whether the block's split sibling lies
// entirely inside a range the preceding probe half confirmed.
func (st *state) siblingConfirmedInPhaseA(b *blk) bool {
	if len(st.lastPhaseAConfirmed) == 0 || b.parentLen <= b.size {
		return false
	}
	var sib interval
	if b.isRight {
		sib = interval{b.off - (b.parentLen - b.size), b.off}
	} else {
		sib = interval{b.off + b.size, b.off + b.parentLen - b.size + b.size}
	}
	for _, iv := range st.lastPhaseAConfirmed {
		if iv.start <= sib.start && sib.end <= iv.end {
			return true
		}
	}
	return false
}

// splitBlocks halves blocks larger than nextB and drops covered ones.
func (st *state) splitBlocks(nextB int) {
	out := make([]blk, 0, len(st.blocks)*2)
	for i := range st.blocks {
		b := &st.blocks[i]
		if st.fullyCovered(b.off, b.size) {
			continue
		}
		if b.size <= nextB {
			out = append(out, *b)
			continue
		}
		left := blk{
			off: b.off, size: nextB,
			parentBits: b.hashBits, parentVal: b.hashVal, parentLen: b.size,
		}
		right := blk{
			off: b.off + nextB, size: b.size - nextB,
			parentBits: b.hashBits, parentVal: b.hashVal, parentLen: b.size,
			isRight: true,
		}
		if !st.fullyCovered(left.off, left.size) {
			out = append(out, left)
		}
		if right.size > 0 && !st.fullyCovered(right.off, right.size) {
			out = append(out, right)
		}
	}
	st.blocks = out
}

// Done reports whether map construction has finished for this file.
func (st *state) Done() bool { return st.done }

// Rounds returns per-round diagnostics for the rounds completed so far.
// Server and client produce identical records.
func (st *state) Rounds() []RoundStats { return st.rounds }
