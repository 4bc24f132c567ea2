package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"msync/internal/bitio"
	"msync/internal/cdc"
	"msync/internal/delta"
	"msync/internal/gtest"
	"msync/internal/md4"
	"msync/internal/pool"
	"msync/internal/rolling"
)

// ErrVerifyFailed is returned by ApplyDelta when the reconstructed file does
// not match the whole-file strong hash (a verification hash collision
// slipped a false match through). The caller should fall back to a full
// transfer.
var ErrVerifyFailed = errors.New("core: reconstructed file failed whole-file check")

// ClientFile is the per-file engine on the side holding the outdated version.
type ClientFile struct {
	state
	fOld []byte
	poly *rolling.Poly

	// candOff and candAlts track, for each candidate (index into
	// candEntries), the currently chosen source offset in fOld and the
	// remaining alternatives.
	candOff  []int
	candAlts [][]int32
	altNext  []int

	awaitConfirm bool

	// CDCChunks counts content-defined chunks hashed in MapCDC rounds.
	CDCChunks int64

	// Round-scratch buffers reused across AbsorbHashes calls. candArena
	// backs every per-entry candidate slice (fixed stride, so concurrent
	// shard merges and later appends never reallocate). All are dead
	// between rounds — the previous round's views of them are released in
	// finalizeRound before the next AbsorbHashes re-carves them.
	scratchVals  []uint64
	scratchCands [][]int32
	candArena    []int32

	// sets[:nsets] are the round's search sets, one per window size. By the
	// splitting invariant a round's blocks are [k·b, min((k+1)·b, n)), so
	// there are at most two sizes: b and the file's tail n mod b.
	sets  [2]searchSet
	nsets int
}

// searchSet holds the hash values one round sent for blocks of one size,
// mapping each value to the plan entries that sent it. The client slides a
// window of that size over its old file and asks the set about every
// position — far cheaper than indexing every position of the old file.
//
// Almost every position misses, so the answer comes in two steps. A bit
// filter turns most positions away with one load: it has 64 to 128 bits per
// key, so at most one position in 64 passes it by accident, up to 16 KB —
// half an L1 cache; beyond 2048 keys the bits per key fall instead. Only
// positions that pass probe the open-addressed table, whose slot count is 2
// to 4 times this round's key count. A set of one key — every round's tail
// block — is a plain compare with neither. Backing arrays are reused from
// round to round and only the part in use is cleared, so set-up costs
// O(keys).
type searchSet struct {
	size int // window size
	n    int // entries added

	only      uint64 // n == 1: the key and its entry
	onlyEntry int32
	filter    []uint64
	fmask     uint64 // filter bit index = key >> filterSkip & fmask
	keys      []uint64
	val       []int32
	shift     uint               // table slot = key·slotMul >> shift
	over      map[uint64][]int32 // additional entries sharing a key (rare)
}

// emptySlot never collides with a real key: keys are truncated hashes of at
// most MaxHashBits (≤56) bits.
const emptySlot = ^uint64(0)

// slotMul spreads keys over table slots; the product's top bits pick the
// slot.
const slotMul = 0x9E3779B97F4A7C15

// The filter is indexed by the key's own low bits, which costs the scan loop
// a shift and a mask: they are the bits the protocol itself trusts, since a
// truncated hash is the low bits of the full one. The lowest is skipped: it is
// the window length's parity (every table entry and the base are odd).
const (
	filterSkip       = 1
	filterBitsPerKey = 64
	minFilterWords   = 8    // one cache line
	maxFilterWords   = 2048 // 16 KB
)

// reset empties the set and sizes it for ss.n entries.
func (ss *searchSet) reset() {
	ss.over = nil
	if ss.n == 1 {
		return
	}
	words, slots := minFilterWords, 16
	for words < maxFilterWords && words*64 < ss.n*filterBitsPerKey {
		words *= 2
	}
	for slots < ss.n*2 {
		slots *= 2
	}
	if cap(ss.filter) < words {
		ss.filter = make([]uint64, words)
	}
	if cap(ss.keys) < slots {
		ss.keys = make([]uint64, slots)
		ss.val = make([]int32, slots)
	}
	ss.filter, ss.keys, ss.val = ss.filter[:words], ss.keys[:slots], ss.val[:slots]
	ss.fmask = uint64(words*64 - 1)
	ss.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	clear(ss.filter)
	for i := range ss.keys {
		ss.keys[i] = emptySlot
	}
}

// add associates a plan entry index with a hash value. Entries sharing a key
// are kept in the order they were added.
func (ss *searchSet) add(key uint64, entry int32) {
	if ss.n == 1 {
		ss.only, ss.onlyEntry = key, entry
		return
	}
	f := key >> filterSkip & ss.fmask
	ss.filter[f>>6] |= 1 << (f & 63)
	mask := uint64(len(ss.keys) - 1)
	for s := key * slotMul >> ss.shift; ; s = (s + 1) & mask {
		switch ss.keys[s] {
		case emptySlot:
			ss.keys[s] = key
			ss.val[s] = entry
			return
		case key:
			if ss.over == nil {
				ss.over = make(map[uint64][]int32)
			}
			ss.over[key] = append(ss.over[key], entry)
			return
		}
	}
}

// match looks up the window hashes hs of positions pos, pos+1, … and reports
// every (entry, position) hit to take: positions ascending, and at one
// position the key's first entry before its extras.
func (ss *searchSet) match(hs []uint64, mask uint64, pos int, take func(entry, pos int32)) {
	if ss.n == 1 {
		for i, h := range hs {
			if h&mask == ss.only {
				take(ss.onlyEntry, int32(pos+i))
			}
		}
		return
	}
	// fmask already keeps f>>6 inside the filter; the length test and wordMask
	// let the compiler see it, so the loop carries no bounds check.
	filter, fmask := ss.filter, ss.fmask&(mask>>filterSkip)
	if len(filter) == 0 {
		return
	}
	wordMask := uint64(len(filter) - 1)
	for i, h := range hs {
		f := h >> filterSkip & fmask
		if filter[f>>6&wordMask]>>(f&63)&1 != 0 {
			ss.probe(h&mask, int32(pos+i), take)
		}
	}
}

// probe reports the entries of key, if the table holds it, as hits at pos:
// its first entry, then any that share the key.
func (ss *searchSet) probe(key uint64, pos int32, take func(entry, pos int32)) {
	mask := uint64(len(ss.keys) - 1)
	for s := key * slotMul >> ss.shift; ; s = (s + 1) & mask {
		switch ss.keys[s] {
		case emptySlot:
			return
		case key:
			take(ss.val[s], pos)
			for _, ei := range ss.over[key] {
				take(ei, pos)
			}
			return
		}
	}
}

// setFor returns the round's search set for a window size, claiming a free
// one the first time the size is seen.
func (c *ClientFile) setFor(size int) *searchSet {
	for k := range c.sets[:c.nsets] {
		if c.sets[k].size == size {
			return &c.sets[k]
		}
	}
	if c.nsets == len(c.sets) {
		panic("core: a round's blocks have more than two sizes")
	}
	ss := &c.sets[c.nsets]
	c.nsets++
	ss.size, ss.n = size, 0
	return ss
}

// NewClientFile starts the client engine for one file. newLen is the length
// of the server's current version (learned from the collection manifest).
func NewClientFile(fOld []byte, newLen int, cfg *Config) (*ClientFile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &ClientFile{fOld: fOld, poly: rolling.Default()}
	c.initState(cfg, newLen)
	return c, nil
}

// Active reports whether this file still participates in map rounds.
func (c *ClientFile) Active() bool { return !c.done }

// finalizePending absorbs the final confirm bits of the previous round from
// r and advances shared state. Called at the head of a new round's hash
// message and of the delta message.
func (c *ClientFile) finalizePending(r *bitio.Reader) error {
	if !c.awaitConfirm {
		return nil
	}
	groups := c.vplan.Groups()
	results := make([]bool, len(groups))
	for i := range results {
		bit, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("core: final confirm bits: %w", err)
		}
		results[i] = bit
	}
	c.noteBatch(len(groups))
	if c.vplan.Absorb(results) {
		return fmt.Errorf("%w: final confirm expected no further batches", ErrProtocol)
	}
	c.finalizeRound()
	c.awaitConfirm = false
	return nil
}

// finalizeRound applies the completed verification plan. The candidate
// views are truncated, not nil'd, so their backing arrays (and the arena
// slices candAlts points into) are recycled by the next round.
func (c *ClientFile) finalizeRound() {
	confirmed := c.vplan.Confirmed()
	offs := make([]int, len(confirmed))
	copy(offs, c.candOff)
	c.finishRound(confirmed, offs)
	c.candOff = c.candOff[:0]
	c.candAlts = c.candAlts[:0]
	c.altNext = c.altNext[:0]
}

// AbsorbHashes processes a round's hash section (see EmitHashes): it
// finalizes the previous round from the piggybacked confirm bits, derives the
// same plan as the server, reads a CDC round's cut, reads the hashes, and
// searches fOld for candidates.
func (c *ClientFile) AbsorbHashes(payload []byte) error {
	r := bitio.NewReader(payload)
	if err := c.finalizePending(r); err != nil {
		return err
	}
	if c.done {
		return fmt.Errorf("%w: hashes for a finished file", ErrProtocol)
	}
	var regions []interval
	c.plan, regions = c.buildPlan()
	if err := c.readChunks(r, regions); err != nil {
		return err
	}
	hb := c.plan.hb

	ne := len(c.plan.entries)
	if cap(c.scratchVals) < ne {
		c.scratchVals = make([]uint64, ne)
	}
	vals := c.scratchVals[:ne]
	cands, maxAlt := c.candScratch(ne)
	for i := range c.plan.entries {
		e := &c.plan.entries[i]
		raw, err := r.ReadBits(uint(e.bits))
		if err != nil {
			return fmt.Errorf("core: round hashes: %w", err)
		}
		full, width := raw, uint(e.bits)
		if e.kind == kTopUp {
			eff := hb - uint(e.bits)
			low := c.poly.DeriveRight(c.blocks[e.blockIdx].parentVal, eff, vals[e.siblingIdx], e.size)
			full, width = raw<<eff|low, hb
		}
		vals[i] = full
		if e.blockIdx >= 0 {
			bl := &c.blocks[e.blockIdx]
			bl.hashBits = uint8(width)
			bl.hashVal = full
		}
		if e.kind == kProbe {
			cands[i] = c.probeCandidates(e, full, c.candAt(i))
		}
	}
	if c.cfg.MapMode == MapCDC {
		c.chunkCandidates(regions, vals, cands, maxAlt)
	} else {
		c.windowCandidates(vals, cands, maxAlt)
	}
	c.collectCandidates(cands)
	return nil
}

// readChunks reads a CDC round's cut by chunkLayout and plans one entry per
// chunk, refusing lengths that do not tile their region exactly.
func (c *ClientFile) readChunks(r *bitio.Reader, regions []interval) error {
	params, lenBits := c.chunkLayout()
	for _, g := range regions {
		count := 1
		if cb := cdcCountBits(g.end-g.start, params.Min); cb > 0 {
			v, err := r.ReadBits(cb)
			if err != nil {
				return fmt.Errorf("core: cdc chunk count: %w", err)
			}
			count = int(v) + 1
			c.roundBits += int64(cb)
		}
		start := g.start
		for i := 0; i < count; i++ {
			l := g.end - start // a region's last chunk runs to its end
			if i < count-1 {
				v, err := r.ReadBits(lenBits)
				if err != nil {
					return fmt.Errorf("core: cdc chunk lengths: %w", err)
				}
				l = int(v) + params.Min
				c.roundBits += int64(lenBits)
			}
			if l <= 0 || l > params.Max || start+l > g.end {
				return fmt.Errorf("%w: cdc chunk length %d does not tile region [%d,%d)", ErrProtocol, l, g.start, g.end)
			}
			c.addChunk(start, l)
			start += l
		}
	}
	return nil
}

// windowCandidates searches fOld for a halving round's blocks: one pass over
// the old file, every window size against the small set of this round's hash
// values for that size.
func (c *ClientFile) windowCandidates(vals []uint64, cands [][]int32, maxAlt int) {
	c.nsets = 0
	for i := range c.plan.entries {
		if e := &c.plan.entries[i]; e.kind != kProbe && e.size > 0 && e.size <= len(c.fOld) {
			c.setFor(e.size).n++
		}
	}
	if c.nsets == 0 {
		return
	}
	sets := c.sets[:c.nsets]
	for k := range sets {
		sets[k].reset()
	}
	for i := range c.plan.entries {
		e := &c.plan.entries[i]
		if e.kind == kProbe || e.size <= 0 || e.size > len(c.fOld) {
			continue
		}
		c.setFor(e.size).add(rolling.Truncate(vals[i], c.plan.hb), int32(i))
		cands[i] = c.candAt(i)
	}
	c.scanOld(sets, c.plan.hb, cands, maxAlt, c.scanShards(sets))
}

// candScratch readies the per-entry candidate scratch of a round of ne
// entries: the slice headers, all nil, and the arena candAt carves each
// entry's slice from. The fixed per-entry stride caps every slice's capacity,
// so appends (including the sharded scan's merge) stay in place and rounds
// reuse one block. maxAlt is how many alternates an entry may keep.
func (c *ClientFile) candScratch(ne int) (cands [][]int32, maxAlt int) {
	if cap(c.scratchCands) < ne {
		c.scratchCands = make([][]int32, ne)
	}
	if cap(c.candArena) < ne*c.candStride() {
		c.candArena = make([]int32, ne*c.candStride())
	}
	cands = c.scratchCands[:ne]
	clear(cands)
	return cands, max(c.cfg.MaxAlternates, 1)
}

// candStride is an entry's share of the arena: its alternates, and never
// less than the two positions a continuation probe may predict.
func (c *ClientFile) candStride() int { return max(c.cfg.MaxAlternates, 2) }

// candAt is entry i's empty candidate slice in the round's arena.
func (c *ClientFile) candAt(i int) []int32 {
	lo, stride := i*c.candStride(), c.candStride()
	return c.candArena[lo : lo : lo+stride]
}

// collectCandidates keeps the entries that found a candidate, each with its
// first offset and its alternates, for the reply and the verification plan.
func (c *ClientFile) collectCandidates(cands [][]int32) {
	c.candEntries = c.candEntries[:0]
	c.candOff = c.candOff[:0]
	c.candAlts = c.candAlts[:0]
	c.altNext = c.altNext[:0]
	for i, alts := range cands {
		if len(alts) > 0 {
			c.candEntries = append(c.candEntries, i)
			c.candOff = append(c.candOff, int(alts[0]))
			c.candAlts = append(c.candAlts, alts)
			c.altNext = append(c.altNext, 0)
		}
	}
}

// chunkCandidates finds a CDC round's chunks in fOld: it chunks the old file
// at the round's parameters and matches the received truncated hashes by
// exact (length, hash) lookup. Candidate offsets come out in ascending
// old-file order, so the reply is deterministic and the retry-alternate
// machinery works unchanged.
func (c *ClientFile) chunkCandidates(regions []interval, vals []uint64, cands [][]int32, maxAlt int) {
	p := c.plan
	nProbes := 0
	for nProbes < len(p.entries) && p.entries[nProbes].kind == kProbe {
		nProbes++
	}
	if nProbes == len(p.entries) {
		return
	}
	// A region's first and last chunks start/end at confirmed cover edges —
	// positions the old-file chunking almost never cuts at — so exact chunk
	// lookup cannot find them. But the match adjacent to the enclosing gap
	// predicts where such an edge chunk continues in fOld, exactly like a
	// continuation probe. Candidate discovery is client-local (the server
	// only ever sees the bitmap), so this extra check costs no wire bytes
	// and keeps the plans identical on both sides.
	type edgePred struct{ mi1, mi2 int }
	preds := make(map[int]edgePred)
	{
		gs := c.gaps()
		gi := 0
		ei := nProbes
		for _, reg := range regions {
			for gi < len(gs) && gs[gi].end < reg.end {
				gi++
			}
			first, last := -1, -1
			for ; ei < len(p.entries) && p.entries[ei].off < reg.end; ei++ {
				if first < 0 {
					first = ei
				}
				last = ei
			}
			if first < 0 || gi >= len(gs) {
				continue
			}
			if mi := c.matchEndingAt(gs[gi].start); mi >= 0 {
				ep := preds[first]
				ep.mi1 = mi + 1 // store 1-based; zero value means "none"
				preds[first] = ep
			}
			if mi := c.matchStartingAt(gs[gi].end); mi >= 0 {
				ep := preds[last]
				ep.mi2 = mi + 1
				preds[last] = ep
			}
		}
	}

	// Index the old file's chunks at the same parameters by (length,
	// truncated hash): index holds the first chunk with a key and next
	// chains to the following ones, both as chunk number + 1 (0 = none).
	// Chains run in file order, so candidate alternates are ascending — the
	// same tie-break the halving scan uses.
	type ckey struct {
		size int
		hash uint64
	}
	var index map[ckey]int32
	var next []int32
	var cuts, bounds []int
	if len(c.fOld) > 0 {
		params, _ := c.chunkLayout()
		var err error
		cuts, err = cdc.CutsE(c.fOld, params)
		if err != nil {
			panic("core: validated config yielded bad cdc params: " + err.Error())
		}
		bounds = append([]int{0}, cuts...) // chunk k is fOld[bounds[k]:bounds[k+1]]
		index = make(map[ckey]int32, len(cuts))
		next = make([]int32, len(cuts))
		for k := len(cuts) - 1; k >= 0; k-- {
			chunk := c.fOld[bounds[k]:bounds[k+1]]
			key := ckey{len(chunk), rolling.Truncate(c.poly.Hash(chunk), p.hb)}
			next[k] = index[key]
			index[key] = int32(k + 1)
		}
		c.CDCChunks += int64(len(cuts))
	}

	for i := nProbes; i < len(p.entries); i++ {
		e := &p.entries[i]
		dst := c.candAt(i)
		if ep, ok := preds[i]; ok {
			// Edge chunk: try the collinear continuation position(s) first —
			// they are the most likely source, so they get the first verify.
			// If an edit inside the adjacent probe range shifted the
			// continuation, the chunk still starts/ends at a content cut in
			// fOld, so also try cut-anchored positions near the prediction.
			pe := *e
			pe.matchIdx, pe.matchIdx2 = ep.mi1-1, ep.mi2-1
			dst = c.probeCandidates(&pe, vals[i], dst)
			dst = c.cutAnchoredCandidates(&pe, vals[i], cuts, dst)
		}
		for k := index[ckey{e.size, vals[i]}]; k != 0 && len(dst) < maxAlt; k = next[k-1] {
			a := int32(bounds[k-1])
			dup := false
			for _, d := range dst {
				if d == a {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, a)
			}
		}
		if len(dst) > 0 {
			cands[i] = dst
		}
	}
}

// cutAnchorRadius is how far from a CDC edge chunk's predicted position
// cutAnchoredCandidates looks for old-file cuts.
const cutAnchorRadius = 256

// cutAnchoredCandidates tries cut-anchored source positions for a CDC
// region-edge chunk whose collinear prediction may be off by a small shift:
// a first chunk (matchIdx) ends at a content cut, so old-file cuts near the
// predicted end are tried as chunk ends; a last chunk (matchIdx2) starts at
// one, so cuts near the predicted start are tried as chunk starts, within
// cutAnchorRadius of the prediction. Appends into the caller's arena-backed
// dst (bounded by its capacity), deduplicating.
func (c *ClientFile) cutAnchoredCandidates(e *entry, val uint64, cuts []int, dst []int32) []int32 {
	if len(cuts) == 0 {
		return dst
	}
	try := func(start int) {
		if start < 0 || start+e.size > len(c.fOld) || len(dst) == cap(dst) {
			return
		}
		for _, p := range dst {
			if int(p) == start {
				return
			}
		}
		if rolling.Truncate(c.poly.Hash(c.fOld[start:start+e.size]), uint(e.bits)) == val {
			dst = append(dst, int32(start))
		}
	}
	forCutsNear := func(target int, f func(cut int)) {
		lo := sort.SearchInts(cuts, target-cutAnchorRadius)
		for j := lo; j < len(cuts) && cuts[j] <= target+cutAnchorRadius; j++ {
			f(cuts[j])
		}
	}
	if mi := e.matchIdx; mi >= 0 {
		m := c.matches[mi]
		end := m.clientOff + (e.off - m.serverOff) + e.size
		forCutsNear(end, func(cut int) { try(cut - e.size) })
	}
	if mi := e.matchIdx2; mi >= 0 {
		m := c.matches[mi]
		start := m.clientOff + (e.off - m.serverOff)
		// Cut offsets are chunk ends, which are exactly the later chunks'
		// starts; offset 0 is a start too.
		if start-cutAnchorRadius <= 0 && 0 <= start+cutAnchorRadius {
			try(0)
		}
		forCutsNear(start, func(cut int) { try(cut) })
	}
	return dst
}

// scanMinShard is the floor on window positions per scan shard; below two
// shards' worth a scan stays serial. A shard costs a goroutine hand-off, a
// window re-seed and its share of the hit merge — tens of microseconds —
// while the kernel visits a position in 1 to 3 ns, so a shard must be about
// a hundred thousand positions before the second core returns more than the
// split takes. BenchmarkScanShards is the measurement: two shards ran at
// 0.85–1.00× of serial on a 64 KB file, 0.91–1.26× at 128 KB and 1.32–1.58×
// at 256 KB, the first size this floor splits. The effective minimum is
// size-adaptive (see scanShardMin).
const scanMinShard = 1 << 17

// scanReseedFactor bounds the InitAt re-seed overhead: every shard rolls at
// least this many positions per window byte re-hashed at its start, keeping
// the per-shard setup under ~1/scanReseedFactor of the shard's rolling work.
// Hashing a byte and visiting a position cost about the same, so the factor
// is a plain percentage; it binds only for windows above 2 KB.
const scanReseedFactor = 64

// scanShardMin returns the minimum shard width for a scan with the given
// window size: the static floor or the re-seed-amortizing width, whichever
// is larger.
func scanShardMin(size int) int {
	if m := size * scanReseedFactor; m > scanMinShard {
		return m
	}
	return scanMinShard
}

// scanPositions reports how many alignments the scan of sets visits: those of
// its smallest window.
func (c *ClientFile) scanPositions(sets []searchSet) int {
	positions := 0
	for k := range sets {
		positions = max(positions, len(c.fOld)-sets[k].size+1)
	}
	return positions
}

// scanShards picks the number of shards for the scan of sets from the input
// alone: the alignments to visit, the largest window (every shard re-seeds
// it) and the workers the host can run.
func (c *ClientFile) scanShards(sets []searchSet) int {
	size := 0
	for k := range sets {
		size = max(size, sets[k].size)
	}
	return pool.Shards(c.cfg.Workers, c.scanPositions(sets), scanShardMin(size))
}

// scanChunk is how many window hashes the kernel takes from the roller per
// call: enough to make the call free, few enough that the chunk (2 KB, on the
// stack) and the bytes it was rolled from stay in L1 for every set.
const scanChunk = 256

// scanRange is the scan kernel. It slides each set's window across alignments
// [lo, hi) of the old file (a window stops at its own last alignment), taking
// the window hashes from the roller a chunk at a time and matching
// each chunk against the set while it is hot, and reports every hit to take.
// All sets share the pass, so a round reads the old file once however many
// block sizes it has. Per set, hits arrive in scan order — position
// ascending, and at one position the set's first entry before its extras.
func (c *ClientFile) scanRange(sets []searchSet, bits uint, lo, hi int, take func(entry, pos int32)) {
	var hashes [scanChunk]uint64
	var rollers [len(c.sets)]*rolling.Roller
	var ends [len(c.sets)]int
	for k := range sets {
		ends[k] = min(hi, len(c.fOld)-sets[k].size+1)
		if lo < ends[k] {
			rollers[k] = c.poly.NewRoller(sets[k].size)
			rollers[k].InitAt(c.fOld, lo)
		}
	}
	mask := rolling.Truncate(^uint64(0), bits)
	for pos := lo; pos < hi; pos += scanChunk {
		for k := range sets {
			if pos >= ends[k] {
				continue
			}
			hs := hashes[:min(scanChunk, ends[k]-pos)]
			rollers[k].Fill(hs, c.fOld, pos)
			sets[k].match(hs, mask, pos, take)
		}
	}
}

// scanHit is one (entry, position) match found by a scan shard.
type scanHit struct{ entry, pos int32 }

// scanOld searches the old file for the round's hash values and records
// candidate source positions (at most maxAlt per entry). With more than one
// shard the alignment range is split into contiguous shards that run the
// kernel through the worker pool, each re-seeding its windows at its own start
// (InitAt reads the size-1 overlap bytes from the previous shard's
// territory), and the per-shard hit lists are merged by position.
//
// Determinism invariants (the wire stays bit-identical to one shard):
//   - shards partition the positions contiguously and in order;
//   - each shard records hits in the kernel's scan order;
//   - each shard keeps at most maxAlt hits per entry (more can never
//     survive the merge), and the merge walks shards in shard order
//     re-applying the cap, so every entry ends with exactly the serial
//     scan's first maxAlt positions.
func (c *ClientFile) scanOld(sets []searchSet, bits uint, cands [][]int32, maxAlt, shards int) {
	positions := c.scanPositions(sets)
	if shards <= 1 {
		c.scanRange(sets, bits, 0, positions, func(ei, pos int32) {
			if len(cands[ei]) < maxAlt {
				cands[ei] = append(cands[ei], pos)
			}
		})
		return
	}
	hits := make([][]scanHit, shards)
	_ = pool.Do(c.cfg.Workers, shards, func(s int) error {
		var out []scanHit
		var seen map[int32]int // lazily built: hits are rare
		c.scanRange(sets, bits, pool.Bound(positions, shards, s), pool.Bound(positions, shards, s+1), func(ei, pos int32) {
			if seen == nil {
				seen = make(map[int32]int, 8)
			}
			if seen[ei] < maxAlt {
				seen[ei]++
				out = append(out, scanHit{ei, pos})
			}
		})
		hits[s] = out
		return nil
	})
	for _, hs := range hits {
		for _, h := range hs {
			if len(cands[h.entry]) < maxAlt {
				cands[h.entry] = append(cands[h.entry], h.pos)
			}
		}
	}
}

// probeCandidates checks the (at most two) predicted positions for a
// continuation probe, appending into the caller's (arena-backed) dst.
func (c *ClientFile) probeCandidates(e *entry, val uint64, dst []int32) []int32 {
	out := dst
	check := func(mi int) {
		if mi < 0 {
			return
		}
		m := c.matches[mi]
		pred := m.clientOff + (e.off - m.serverOff)
		if pred < 0 || pred+e.size > len(c.fOld) {
			return
		}
		h := rolling.Truncate(c.poly.Hash(c.fOld[pred:pred+e.size]), uint(e.bits))
		if h == val {
			for _, p := range out {
				if int(p) == pred {
					return
				}
			}
			out = append(out, int32(pred))
		}
	}
	check(e.matchIdx)
	check(e.matchIdx2)
	return out
}

// EmitReply writes the candidate bitmap and the first verification batch.
func (c *ClientFile) EmitReply() []byte {
	w := bitio.NewWriter(64)
	ci := 0
	for i := range c.plan.entries {
		isCand := ci < len(c.candEntries) && c.candEntries[ci] == i
		w.WriteBit(isCand)
		if isCand {
			ci++
		}
	}
	c.noteReplyBitmap()
	c.vplan = gtest.NewPlan(c.candidateClasses(), c.cfg.Verify)
	c.emitBatchHashes(w)
	return w.Bytes()
}

// emitBatchHashes writes the current batch's test hashes. The strong-hash
// work fans out across the worker pool for large batches; the write order
// (and therefore the wire) is unchanged.
func (c *ClientFile) emitBatchHashes(w *bitio.Writer) {
	groups := c.vplan.Groups()
	sums := verifyGroupSums(c.cfg.Workers, c.cfg.VerifyBits, groups, func(cand int) []byte {
		e := &c.plan.entries[c.candEntries[cand]]
		off := c.candOff[cand]
		return c.fOld[off : off+e.size]
	})
	for _, s := range sums {
		w.WriteBits(s, c.cfg.VerifyBits)
	}
	if len(groups) == 0 {
		// Zero-candidate round: the verification plan is already complete.
		if c.vplan.Absorb(nil) {
			panic("core: empty verification plan demanded another batch")
		}
		c.finalizeRound()
		return
	}
	c.awaitConfirm = true
}

// AbsorbConfirm processes an intermediate confirm bitmap; the round is NOT
// final (the server will keep the final bitmap for piggybacking). It
// prepares retry candidates and returns true when the client must emit
// another batch.
func (c *ClientFile) AbsorbConfirm(payload []byte) (bool, error) {
	if !c.awaitConfirm {
		return false, fmt.Errorf("%w: unexpected confirm bitmap", ErrProtocol)
	}
	r := bitio.NewReader(payload)
	groups := c.vplan.Groups()
	results := make([]bool, len(groups))
	for i := range results {
		bit, err := r.ReadBit()
		if err != nil {
			return false, fmt.Errorf("core: confirm bitmap: %w", err)
		}
		results[i] = bit
	}
	c.noteBatch(len(groups))
	more := c.vplan.Absorb(results)
	if !more {
		// Shouldn't happen: intermediate confirms imply more batches.
		c.finalizeRound()
		c.awaitConfirm = false
		return false, nil
	}
	// Switch retry candidates to their next alternative source offset.
	for _, g := range c.vplan.Groups() {
		if !g.Retry {
			continue
		}
		cand := g.Members[0]
		alts := c.candAlts[cand]
		c.altNext[cand]++
		if c.altNext[cand] < len(alts) {
			c.candOff[cand] = int(alts[c.altNext[cand]])
		}
	}
	return true, nil
}

// EmitBatch writes the next verification batch.
func (c *ClientFile) EmitBatch() []byte {
	w := bitio.NewWriter(16)
	c.emitBatchHashes(w)
	return w.Bytes()
}

// openDelta absorbs the pending confirm bits that lead a delta section and
// splits the rest into the whole-file sum and the encoded delta.
func (c *ClientFile) openDelta(payload []byte) (wantSum, enc []byte, err error) {
	r := bitio.NewReader(payload)
	if err := c.finalizePending(r); err != nil {
		return nil, nil, err
	}
	r.Align()
	if wantSum, err = r.ReadBytes(md4.Size); err != nil {
		return nil, nil, fmt.Errorf("core: delta header: %w", err)
	}
	if enc, err = r.ReadBytes(r.BitsRemaining() / 8); err != nil {
		return nil, nil, fmt.Errorf("core: delta payload: %w", err)
	}
	return wantSum, enc, nil
}

// ApplyDelta consumes the final delta section and reconstructs the current
// file. On ErrVerifyFailed the caller should arrange a full transfer.
func (c *ClientFile) ApplyDelta(payload []byte) ([]byte, error) {
	wantSum, enc, err := c.openDelta(payload)
	if err != nil {
		return nil, err
	}

	out := make([]byte, c.n)
	// Materialize known regions from the old file.
	for _, m := range c.matches {
		copy(out[m.serverOff:m.serverOff+m.length], c.fOld[m.clientOff:m.clientOff+m.length])
	}
	ref, release := gather(out, c.coverIntervals())
	defer release()
	// The gaps' total is known beforehand; a section declaring another length
	// is refused before it costs what it declares.
	target, err := delta.DecodeLen(ref[0], enc, c.n-c.coveredBytes())
	if err != nil {
		return nil, fmt.Errorf("core: delta decode: %w", err)
	}
	for _, g := range c.gaps() {
		target = target[copy(out[g.start:g.end], target):]
	}
	got := md4.Sum(out)
	if string(got[:]) != string(wantSum) {
		return nil, ErrVerifyFailed
	}
	return out, nil
}
