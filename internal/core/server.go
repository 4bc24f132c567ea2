package core

import (
	"errors"
	"fmt"

	"msync/internal/bitio"
	"msync/internal/cdc"
	"msync/internal/delta"
	"msync/internal/gtest"
	"msync/internal/md4"
	"msync/internal/rolling"
	"msync/internal/sigcache"
)

// ErrProtocol reports a malformed or out-of-order message.
var ErrProtocol = errors.New("core: protocol error")

// ServerFile is the per-file engine on the side holding the current version.
type ServerFile struct {
	state
	fNew []byte
	poly *rolling.Poly

	// pendingConfirm holds the final batch's results, piggybacked onto the
	// next round's hash message (or the delta message).
	pendingConfirm []bool
	// lastResults holds intermediate batch results for EmitConfirm.
	lastResults []bool
	morePending bool

	// sig, when set, memoizes the whole-file sum and per-round block-hash
	// levels across sessions (see UseSignature).
	sig *sigcache.Sig
	// deltaMode is the format EmitDelta encodes the gaps in (see
	// UseDeltaMode).
	deltaMode delta.Mode

	// Counters for stats.
	HashesSent       int64
	CandidatesSeen   int64
	MatchesConfirmed int64
	// BlockHashesComputed counts block/probe hashes actually computed this
	// session (signature hits avoid them); BytesHashed the bytes fed through
	// the hash function for them.
	BlockHashesComputed int64
	BytesHashed         int64
	// CDCChunks counts content-defined chunks hashed in MapCDC rounds.
	CDCChunks int64
}

// NewServerFile starts the server engine for one file.
func NewServerFile(fNew []byte, cfg *Config) (*ServerFile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &ServerFile{fNew: fNew, poly: rolling.Default()}
	s.initState(cfg, len(fNew))
	return s, nil
}

// Active reports whether this file still participates in map rounds.
func (s *ServerFile) Active() bool { return !s.done }

// UseSignature attaches a cached signature for fNew. The signature must have
// been computed over the same bytes (callers key it by path, size, mtime and
// config fingerprint); its memoized levels then replace block hashing, and
// its whole-file sum replaces the delta-phase MD4 pass. A nil sig is a no-op.
// Hash values served from the signature are identical to freshly computed
// ones, so wire output does not depend on whether a signature is attached.
func (s *ServerFile) UseSignature(sig *sigcache.Sig) {
	if sig == nil || int(sig.Len) != s.n {
		return
	}
	s.sig = sig
}

// UseDeltaMode sets the format EmitDelta encodes the gaps in: delta.Mode0,
// the zero value, unless the receiver asked for another.
func (s *ServerFile) UseDeltaMode(m delta.Mode) { s.deltaMode = m }

// computeLevel hashes every schedule block of size b: by the splitting
// invariant each non-probe plan entry at round b is exactly
// [k*b, min((k+1)*b, n)), so this one table serves global and top-up entries
// at any session's round b for this file.
func computeLevel(data []byte, poly *rolling.Poly, b int) []uint64 {
	n := len(data)
	count := (n + b - 1) / b
	out := make([]uint64, count)
	for k := 0; k < count; k++ {
		lo, hi := k*b, k*b+b
		if hi > n {
			hi = n
		}
		out[k] = poly.Hash(data[lo:hi])
	}
	return out
}

// composeLevel derives the table of block size 2f from the table fine of
// block size f over n bytes: block k is fine blocks 2k and 2k+1 joined by
// Compose. The file's last block may have a short right half, or none at all.
func composeLevel(fine []uint64, poly *rolling.Poly, f, n int) []uint64 {
	out := make([]uint64, (len(fine)+1)/2)
	for k := range out {
		out[k] = fine[2*k]
		if r := 2*k + 1; r < len(fine) {
			out[k] = poly.Compose(fine[2*k], fine[r], min(f, n-r*f))
		}
	}
	return out
}

// buildLevels completes sig with the table of every block size the schedule
// of data can reach, in one pass over data: it hashes at MinBlockSize and
// composes each coarser level from the one below. Tables sig already holds
// are kept. It returns the block hashes and bytes it really hashed.
func buildLevels(sig *sigcache.Sig, data []byte, poly *rolling.Poly, cfg *Config) (hashes, hashed int64) {
	var fine []uint64
	for b, top := cfg.MinBlockSize, cfg.initialBlockSize(len(data)); b <= top; b *= 2 {
		fine = sig.Level(b, func() []uint64 {
			if fine != nil { // still the level below: Level runs this before it returns
				return composeLevel(fine, poly, b/2, len(data))
			}
			hashes += int64((len(data) + b - 1) / b)
			hashed += int64(len(data))
			return computeLevel(data, poly, b)
		})
	}
	return hashes, hashed
}

// levelForRound returns the memoized hash table for the current round's
// block size, or nil when no signature is attached. The first call on a
// signature without it builds every level at once (see buildLevels).
func (s *ServerFile) levelForRound() []uint64 {
	if s.sig == nil || s.b <= 0 {
		return nil
	}
	if l := s.sig.PeekLevel(s.b); l != nil {
		return l
	}
	hashes, hashed := buildLevels(s.sig, s.fNew, s.poly, s.cfg)
	s.BlockHashesComputed += hashes
	s.BytesHashed += hashed
	return s.sig.PeekLevel(s.b)
}

// PrecomputeSignature builds a complete signature for data under cfg: the
// whole-file MD4 sum plus every global-round level table the schedule can
// ask for. Used to warm caches ahead of time (benchmarks, prefetchers);
// sessions built lazily via UseSignature converge to the same state.
func PrecomputeSignature(data []byte, cfg *Config) (*sigcache.Sig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sig := sigcache.NewSig(int64(len(data)), md4.Sum(data))
	buildLevels(sig, data, rolling.Default(), cfg)
	return sig, nil
}

// EmitHashes builds the round plan and writes the round's hash section:
// pending confirm bits, then a CDC round's cut (cutChunks), then one hash per
// planned entry — probes at ContBits, blocks and chunks at the round's global
// width, a top-up only the bits its parent and sibling do not imply.
func (s *ServerFile) EmitHashes() []byte {
	w := bitio.NewWriter(64)
	for _, r := range s.pendingConfirm {
		w.WriteBit(r)
	}
	s.pendingConfirm = nil

	var regions []interval
	s.plan, regions = s.buildPlan()
	s.cutChunks(w, regions)
	hb := s.plan.hb
	var level []uint64
	if s.sig != nil {
		for i := range s.plan.entries {
			if s.plan.entries[i].blockIdx >= 0 {
				level = s.levelForRound()
				break
			}
		}
	}
	for i := range s.plan.entries {
		e := &s.plan.entries[i]
		var full uint64
		if e.blockIdx >= 0 && level != nil {
			full = level[e.off/s.b]
		} else {
			// Probes sit at session-dependent gap edges, chunks at the
			// round's cuts: always fresh.
			full = s.poly.Hash(s.fNew[e.off : e.off+e.size])
			s.BlockHashesComputed++
			s.BytesHashed += int64(e.size)
		}
		width := uint(e.bits)
		if e.kind == kTopUp {
			width = hb // the top bits of the full-width hash
		}
		w.WriteBits(rolling.Truncate(full, width)>>(width-uint(e.bits)), uint(e.bits))
		if e.blockIdx >= 0 {
			// Record what the client now knows about this block.
			bl := &s.blocks[e.blockIdx]
			bl.hashBits = uint8(width)
			bl.hashVal = full
		}
	}
	s.HashesSent += int64(len(s.plan.entries))
	return w.Bytes()
}

// cutChunks cuts each region of a CDC round at fNew's content-defined chunk
// boundaries, writes the cut by chunkLayout and plans one entry per chunk.
func (s *ServerFile) cutChunks(w *bitio.Writer, regions []interval) {
	params, lenBits := s.chunkLayout()
	for _, g := range regions {
		cuts, err := cdc.CutsE(s.fNew[g.start:g.end], params)
		if err != nil {
			panic("core: validated config yielded bad cdc params: " + err.Error())
		}
		if cb := cdcCountBits(g.end-g.start, params.Min); cb > 0 {
			w.WriteBits(uint64(len(cuts)-1), cb)
			s.roundBits += int64(cb)
		}
		start := g.start
		for i, cut := range cuts {
			end := g.start + cut
			if i < len(cuts)-1 {
				w.WriteBits(uint64(end-start-params.Min), lenBits)
				s.roundBits += int64(lenBits)
			}
			s.addChunk(start, end-start)
			start = end
		}
		s.CDCChunks += int64(len(cuts))
	}
}

// AbsorbReply processes the client's candidate bitmap and first verification
// batch. It returns true when more verification batches are pending.
func (s *ServerFile) AbsorbReply(payload []byte) (more bool, err error) {
	if s.plan == nil {
		return false, fmt.Errorf("%w: reply without a round in flight", ErrProtocol)
	}
	r := bitio.NewReader(payload)
	s.candEntries = s.candEntries[:0]
	for i := range s.plan.entries {
		bit, err := r.ReadBit()
		if err != nil {
			return false, fmt.Errorf("core: candidate bitmap: %w", err)
		}
		if bit {
			s.candEntries = append(s.candEntries, i)
		}
	}
	s.noteReplyBitmap()
	s.CandidatesSeen += int64(len(s.candEntries))
	s.vplan = gtest.NewPlan(s.candidateClasses(), s.cfg.Verify)
	return s.absorbBatchHashes(r)
}

// AbsorbBatch processes a subsequent verification batch.
func (s *ServerFile) AbsorbBatch(payload []byte) (more bool, err error) {
	if s.vplan == nil || !s.morePending {
		return false, fmt.Errorf("%w: unexpected verification batch", ErrProtocol)
	}
	return s.absorbBatchHashes(bitio.NewReader(payload))
}

// absorbBatchHashes reads and checks the current batch's test hashes. All
// bits are read serially first (the reader is a sequential bitstream), then
// the expected hashes are computed through the worker pool and compared.
func (s *ServerFile) absorbBatchHashes(r *bitio.Reader) (bool, error) {
	groups := s.vplan.Groups()
	got := make([]uint64, len(groups))
	for gi := range groups {
		v, err := r.ReadBits(s.cfg.VerifyBits)
		if err != nil {
			return false, fmt.Errorf("core: verification hashes: %w", err)
		}
		got[gi] = v
	}
	want := verifyGroupSums(s.cfg.Workers, s.cfg.VerifyBits, groups, func(cand int) []byte {
		e := &s.plan.entries[s.candEntries[cand]]
		return s.fNew[e.off : e.off+e.size]
	})
	results := make([]bool, len(groups))
	for gi := range groups {
		results[gi] = got[gi] == want[gi]
	}
	s.noteBatch(len(groups))
	more := s.vplan.Absorb(results)
	s.lastResults = results
	s.morePending = more
	if !more {
		s.finalizeRound()
	}
	return more, nil
}

// EmitConfirm writes the intermediate confirm bitmap for the last batch.
func (s *ServerFile) EmitConfirm() []byte {
	w := bitio.NewWriter(8)
	for _, r := range s.lastResults {
		w.WriteBit(r)
	}
	return w.Bytes()
}

// finalizeRound applies verification outcomes and advances shared state.
func (s *ServerFile) finalizeRound() {
	confirmed := s.vplan.Confirmed()
	offs := make([]int, len(confirmed)) // server never needs client offsets
	n := 0
	for _, c := range confirmed {
		if c {
			n++
		}
	}
	s.MatchesConfirmed += int64(n)
	s.pendingConfirm = s.lastResults
	s.lastResults = nil
	s.finishRound(confirmed, offs)
}

// EmitDelta produces the final per-file delta section: any pending confirm
// bits, the whole-file strong hash, and the delta of the unknown gaps
// encoded against the known (covered) bytes.
func (s *ServerFile) EmitDelta() []byte {
	w := bitio.NewWriter(256)
	for _, r := range s.pendingConfirm {
		w.WriteBit(r)
	}
	s.pendingConfirm = nil
	w.Align()

	parts, release := gather(s.fNew, s.coverIntervals(), s.gaps())
	defer release()
	var sum [md4.Size]byte
	if s.sig != nil {
		sum = s.sig.Sum
	} else {
		sum = md4.Sum(s.fNew)
		s.BytesHashed += int64(s.n)
	}
	w.WriteBytes(sum[:])
	w.WriteBytes(s.deltaMode.Encode(parts[0], parts[1]))
	return w.Bytes()
}
