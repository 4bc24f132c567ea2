package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"msync/internal/cdc"
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
	kProbe         // continuation hash at a predicted position
)

// entry is one planned hash transmission within a round.
type entry struct {
	kind     uint8
	bits     uint8
	blockIdx int // index into state.blocks; -1 for probes and CDC chunks
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
	hb      uint // width of the round's global hashes
	entries []entry
}

// RoundStats records what one map-construction round did, for diagnostics
// and experiment introspection. Both sides produce identical records.
type RoundStats struct {
	// Round is the 0-based round index; BlockSize its global block size.
	Round     int
	BlockSize int
	// Entry counts by kind.
	Globals, TopUps, Probes int
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
	if n < cfg.MinBlockSize {
		// Too small for map construction; straight to delta.
		st.done = true
		return
	}
	if cfg.MapMode == MapCDC {
		// CDC mode has no splitting tree: st.b is the round's average chunk
		// size, and buildPlan leaves the chunks to the hash section.
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
	slices.SortFunc(ivs, func(a, b interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end))
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

// span is src's bytes over ivs, one file's part of what a delta is coded
// between.
type span struct {
	src []byte
	ivs []interval
}

// gather concatenates the spans of each part, in order, into one pooled
// buffer, sized exactly by summing them first, and returns one string per
// part. release hands the buffer back: call it once delta.Encode or Decode has
// returned (neither keeps a reference to its inputs).
func gather(parts ...[]span) (out [][]byte, release func()) {
	n := 0
	for _, spans := range parts {
		for _, sp := range spans {
			for _, iv := range sp.ivs {
				n += iv.end - iv.start
			}
		}
	}
	bp := gatherPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	b := (*bp)[:0]
	for _, spans := range parts {
		start := len(b)
		for _, sp := range spans {
			for _, iv := range sp.ivs {
				b = append(b, sp.src[iv.start:iv.end]...)
			}
		}
		out = append(out, b[start:len(b):len(b)])
	}
	return out, func() {
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

// buildPlan derives the round plan from shared state: continuation probes at
// cover-interval edges, then — at or above the global floor — the round's
// blocks. Both sides call this with identical state and obtain identical
// plans. In halving the blocks are the splitting tree's unknown ones, planned
// here. In CDC their boundaries follow the holder's content, so buildPlan
// returns the regions the chunks tile — what is neither covered, probed this
// round nor dead — and the hash section carries the cut (cutChunks,
// readChunks). Planned bits are accounted here, a cut's where it is cut or read.
func (st *state) buildPlan() (*plan, []interval) {
	p := &plan{b: st.b}
	var regions []interval
	probeRanges := make([]interval, 0, 8) // on the stack unless a round probes more
	if st.cfg.ContMinBlock > 0 && st.b >= st.cfg.ContMinBlock && len(st.matches) > 0 {
		probeRanges = st.planProbes(p, probeRanges)
	}
	if st.b >= st.cfg.globalFloor() {
		if st.cfg.MapMode == MapCDC {
			p.hb = st.cfg.cdcHashBits(st.n, st.b)
			skip := append(append(append([]interval(nil), st.coverIntervals()...), probeRanges...), st.cdcDead...)
			for _, r := range complement(mergeIntervals(skip), st.n) {
				// Chunking a region shorter than two average chunks yields
				// one or two edge-bounded chunks that rarely match; the next
				// round's probes cover such remnants more cheaply.
				if r.end-r.start >= 2*st.b {
					regions = append(regions, r)
				}
			}
		} else {
			p.hb = st.cfg.hashBits(st.n, st.b)
			st.planBlocks(p, probeRanges)
		}
	}
	for _, e := range p.entries {
		st.roundBits += int64(e.bits)
	}
	return p, regions
}

// planBlocks appends a global hash entry for every unknown block of the
// splitting tree that no probe covers this round and, with Decomposable, turns
// the right sibling of each adjacent global pair into a top-up entry.
func (st *state) planBlocks(p *plan, probeRanges []interval) {
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
		p.entries = append(p.entries, entry{
			kind: kGlobal, bits: uint8(p.hb), blockIdx: bi,
			off: blkRef.off, size: blkRef.size, matchIdx: -1, matchIdx2: -1,
		})
	}
	if !st.cfg.Decomposable {
		return
	}
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
		// Must be true siblings: same parent => contiguous with matching
		// parent length.
		if pl.off+pl.size != bl.off || pl.size+bl.size != bl.parentLen || pl.parentLen != bl.parentLen || pl.isRight {
			continue
		}
		eff := min(uint(bl.parentBits), uint(e.bits))
		e.kind = kTopUp
		e.siblingIdx = i - 1
		e.bits = uint8(uint(e.bits) - eff)
	}
}

// planProbes appends continuation-probe entries at cover-interval edges to p
// and returns probeRanges extended with their server ranges. They derive
// purely from shared state (gaps, matches, failure bookkeeping), the same in
// both modes.
func (st *state) planProbes(p *plan, probeRanges []interval) []interval {
	gaps := st.gaps()
	// The most a round can plan is two probes a gap and, in a halving round,
	// one hash a block after them: allocated once here, not grown entry by
	// entry on both ends every round.
	p.entries = make([]entry, 0, 2*len(gaps)+len(st.blocks))
	for _, g := range gaps {
		glen := g.end - g.start
		size := min(st.b, glen)
		wholeGap := size == glen
		// Right-extension probe of the region ending at g.start.
		if g.start > 0 {
			if mi := st.matchEndingAt(g.start); mi >= 0 && st.allowProbe(g.start, false, size) {
				e := entry{
					kind: kProbe, bits: uint8(st.cfg.ContBits), blockIdx: -1,
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
					kind: kProbe, bits: uint8(st.cfg.ContBits), blockIdx: -1,
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

// chunkLayout is the one rule a CDC round's cut travels by, for the holder
// that writes it (cutChunks) and the receiver that reads it (readChunks): per
// region, the chunk count less one in cdcCountBits(region length, Min) bits,
// then every chunk length but the region's last, less Min, in lenBits. The
// last length is implied by the region end. It returns the round's chunker
// parameters and lenBits.
func (st *state) chunkLayout() (cdc.Params, uint) {
	params := st.cfg.cdcParams(st.b)
	return params, uint(bits.Len(uint(params.Max - params.Min)))
}

// addChunk plans the chunk [off, off+size) at the round's global width and
// accounts its hash.
func (st *state) addChunk(off, size int) {
	st.plan.entries = append(st.plan.entries, entry{
		kind: kGlobal, bits: uint8(st.plan.hb), blockIdx: -1,
		off: off, size: size, matchIdx: -1, matchIdx2: -1,
	})
	st.roundBits += int64(st.plan.hb)
}

func overlapsAny(ivs []interval, start, end int) bool {
	for _, iv := range ivs {
		if start < iv.end && iv.start < end {
			return true
		}
	}
	return false
}

// candidateClasses maps candidate entries to gtest classes.
func (st *state) candidateClasses() []gtest.Class {
	classes := make([]gtest.Class, len(st.candEntries))
	for i, ei := range st.candEntries {
		if st.plan.entries[ei].kind == kProbe {
			classes[i] = gtest.ClassContinuation
		} else {
			classes[i] = gtest.ClassGlobal
		}
	}
	return classes
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
			// must keep descending. A run of >= 12 chunk-widths that missed at
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

	// Record the round for diagnostics.
	rs := RoundStats{
		Round:        st.round,
		BlockSize:    st.b,
		Candidates:   len(st.candEntries),
		CoveredBytes: st.coveredBytes(),
		NewBytes:     st.coveredBytes() - st.coveredAtRound,
		Bits:         st.roundBits,
	}
	for i := range p.entries {
		switch p.entries[i].kind {
		case kGlobal:
			rs.Globals++
		case kTopUp:
			rs.TopUps++
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

	// Advance the schedule: halve the block size (in CDC the average chunk
	// size; there is no tree to split). Below the global floor rounds continue
	// probe-only, extending confirmed regions byte-accurately, down to the
	// continuation minimum.
	st.round++
	st.b /= 2
	if st.b >= st.cfg.globalFloor() {
		st.splitBlocks(st.b)
	} else {
		st.blocks = nil
	}
	if st.b < st.cfg.minScheduleBlock() || st.coveredBytes() == st.n {
		st.done = true
	}
	st.plan = nil
	st.vplan = nil
	st.candEntries = nil
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
