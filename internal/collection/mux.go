package collection

import (
	"errors"
	"fmt"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/wire"
)

// The per-file phases of every session — map rounds, verification batches,
// delta, ack, full-transfer fallback — run as one lockstep stream over all of
// the session's sync files. Each flight carries one frame each way, and every
// file still mapping rides in it, so all of them share each round's latency:
//
//	holder:   ROUND_HASHES ⇄ ROUND_REPLY … CONFIRM ⇄ ROUND_REPLY …   (map)
//	          DELTA ⇄ ACK                                              (delta)
//	          FULL, unanswered, only if the ACK listed failures        (fallback)
//
// File indexes in those frames are ascending and never more than the session
// has files; anything else is rejected before a byte is allocated for it
// (parseSections). A frame of any other type where one of these is due is
// refused as errFrame — CYCLE, STREAM and MUX_ACK among them, which only the
// retired multiplexed scheduler sent (PROTOCOL.md "Retired: stream
// multiplexing").
//
// A journal hit is the stream with no engines: nothing to map, so its first
// frame is an empty DELTA, and its ack ordinals count journal verdicts.
//
// Workers: the session's whole budget goes to the engines behind each frame.
// Frames are assembled from index-addressed slots, so the bytes are the same
// for every worker count.

// framePhase maps a per-file frame type to the cost phase its bytes are
// accounted under.
func framePhase(inner byte) stats.Phase {
	switch inner {
	case wire.FrameDelta:
		return stats.PhaseDelta
	case wire.FrameFull:
		return stats.PhaseFull
	case wire.FrameAck:
		return stats.PhaseControl
	default: // ROUND_HASHES, CONFIRM, ROUND_REPLY
		return stats.PhaseMap
	}
}

// span opens the trace span a per-file frame starts: one round span per
// ROUND_HASHES, numbered by round, with its verify spans, then delta and
// full. Any other frame continues the open span.
func (s *session) span(ft byte, round *int) {
	switch ft {
	case wire.FrameRoundHashes:
		*round++
		s.st.begin(obs.PhaseRound, *round)
	case wire.FrameConfirm:
		s.st.begin(obs.PhaseVerify, *round)
	case wire.FrameDelta:
		s.st.begin(obs.PhaseDelta, 0)
	case wire.FrameFull:
		s.st.begin(obs.PhaseFull, 0)
	}
}

// readFrame reads the peer's next per-file frame, opens its span and accounts
// it; the stream's handler judges its type.
func (s *session) readFrame(round *int) (byte, []byte, error) {
	ft, payload, err := s.read()
	if err != nil {
		return 0, nil, err
	}
	s.span(ft, round)
	s.cost(s.in(), framePhase(ft), len(payload))
	return ft, payload, nil
}

// errIndexList marks a per-file frame whose index list a well-behaved peer
// cannot have sent: more entries than the session has files, or indexes that
// are out of range or not strictly ascending.
var errIndexList = fmt.Errorf("%w: malformed file index list", core.ErrProtocol)

// section is one entry of a ROUND_HASHES, CONFIRM, ROUND_REPLY or FULL frame;
// an ACK's entries are bare indexes.
type section struct {
	idx  int
	body []byte
}

// parseSections decodes the index list of a per-file frame, `n (idx body)*n`
// — or, for an ACK, `n idx*n` without bodies — for a stream of nFiles files.
// Every sender builds these lists in index order, so n ≤ nFiles and strictly
// ascending indexes are required: that bounds the allocation by what this end
// already holds (and by the payload, an entry being at least a byte) rather
// than by a number the peer chose, and keeps two workers from ever being
// handed the same engine.
func parseSections(payload []byte, nFiles int, bodies bool) ([]section, error) {
	p := wire.NewParser(payload)
	n, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(nFiles) || n > uint64(p.Remaining()) {
		return nil, fmt.Errorf("%w: %d entries for %d files in %d bytes", errIndexList, n, nFiles, len(payload))
	}
	out := make([]section, n)
	for k := range out {
		idx, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= uint64(nFiles) || (k > 0 && int(idx) <= out[k-1].idx) {
			return nil, fmt.Errorf("%w: index %d", errIndexList, idx)
		}
		out[k].idx = int(idx)
		if bodies {
			if out[k].body, err = p.Bytes(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// serverStream is the stream of a serving session: its files' engines and
// where it stands in the phase sequence. What it sends next follows from what
// it holds: failed ack indexes → FULL; engines awaiting a verification batch
// → CONFIRM; engines with map rounds left → ROUND_HASHES; none of those →
// DELTA.
type serverStream struct {
	files   []syncFile
	buf     *wire.Buffer // assembles the outgoing frames
	sent    byte         // type of the frame the peer is answering
	active  []int        // engines in the current ROUND_HASHES
	pending []int        // engines awaiting a verification batch
	failed  []section    // acked ordinals needing a full transfer
	// settled are the ack ordinals past the engines: files the verdicts
	// settled without an engine, full(i, settled[i]) the whole content of
	// the i-th (see serverWork).
	settled []ManifestEntry
	full    func(i int, e ManifestEntry) ([]byte, error)
	// mode is the delta format FULL's files are compressed in.
	mode delta.Mode
}

// content is the whole content of ack ordinal i: the exact bytes its engine
// synced from — so a fallback is consistent with the session even if the
// source changed — or a settled file's.
func (stm *serverStream) content(i int) ([]byte, error) {
	if i < len(stm.files) {
		return stm.files[i].data, nil
	}
	i -= len(stm.files)
	return stm.full(i, stm.settled[i])
}

// next decides the type of the stream's next frame.
func (stm *serverStream) next() byte {
	switch {
	case len(stm.failed) > 0:
		stm.sent = wire.FrameFull
	case len(stm.pending) > 0:
		stm.sent = wire.FrameConfirm
	default:
		stm.active = stm.active[:0]
		for i := range stm.files {
			if stm.files[i].engine.Active() {
				stm.active = append(stm.active, i)
			}
		}
		stm.sent = wire.FrameDelta
		if len(stm.active) > 0 {
			stm.sent = wire.FrameRoundHashes
		}
	}
	return stm.sent
}

// build assembles the payload of the frame next decided on.
func (stm *serverStream) build(workers int) ([]byte, error) {
	b := stm.buf
	b.Reset()
	switch stm.sent {
	case wire.FrameRoundHashes:
		sections := make([][]byte, len(stm.active))
		pool.Do(workers, len(stm.active), func(k int) error {
			sections[k] = stm.files[stm.active[k]].engine.EmitHashes()
			return nil
		})
		b.Uvarint(uint64(len(stm.active)))
		for k, i := range stm.active {
			b.Uvarint(uint64(i))
			b.Bytes(sections[k])
		}
	case wire.FrameConfirm:
		b.Uvarint(uint64(len(stm.pending)))
		for _, i := range stm.pending {
			b.Uvarint(uint64(i))
			b.Bytes(stm.files[i].engine.EmitConfirm())
		}
	case wire.FrameDelta:
		sections := make([][]byte, len(stm.files))
		pool.Do(workers, len(stm.files), func(i int) error {
			sections[i] = stm.files[i].engine.EmitDelta()
			return nil
		})
		b.Uvarint(uint64(len(stm.files)))
		for _, sec := range sections {
			b.Bytes(sec)
		}
	case wire.FrameFull:
		b.Uvarint(uint64(len(stm.failed)))
		for _, f := range stm.failed {
			data, err := stm.content(f.idx)
			if err != nil {
				return nil, err
			}
			b.Uvarint(uint64(f.idx))
			b.Bytes(stm.mode.Compress(data))
		}
	}
	return b.Build(), nil
}

// absorb advances the stream with the peer's answer, of type ft, to the frame
// it sent.
func (stm *serverStream) absorb(workers int, ft byte, payload []byte) (err error) {
	switch {
	case ft == wire.FrameRoundReply && (stm.sent == wire.FrameRoundHashes || stm.sent == wire.FrameConfirm):
		stm.pending, err = stm.absorbReplies(workers, payload, stm.sent == wire.FrameRoundHashes)
	case ft == wire.FrameAck && stm.sent == wire.FrameDelta:
		stm.failed, err = parseSections(payload, len(stm.files)+len(stm.settled), false)
	default:
		err = fmt.Errorf("%w after %s", errFrame(ft, payload), wire.FrameName(stm.sent))
	}
	return err
}

// absorbReplies feeds one ROUND_REPLY (the first replies to a round's hashes,
// or a later verification batch) to the stream's engines and returns the
// files that still need another batch.
func (stm *serverStream) absorbReplies(workers int, payload []byte, first bool) ([]int, error) {
	jobs, err := parseSections(payload, len(stm.files), true)
	if err != nil {
		return nil, err
	}
	mores := make([]bool, len(jobs))
	err = pool.Do(workers, len(jobs), func(k int) error {
		f := &stm.files[jobs[k].idx]
		absorb := f.engine.AbsorbBatch
		if first {
			absorb = f.engine.AbsorbReply
		}
		more, err := absorb(jobs[k].body)
		if err != nil {
			return fmt.Errorf("collection: file %q: %w", f.path, err)
		}
		mores[k] = more
		return nil
	})
	if err != nil {
		return nil, err
	}
	pending := stm.pending[:0]
	for k, more := range mores {
		if more {
			pending = append(pending, jobs[k].idx)
		}
	}
	return pending, nil
}

// harvest folds the stream's engine counters into the session's costs.
func (stm *serverStream) harvest(c *stats.Costs) {
	for i := range stm.files {
		e := stm.files[i].engine
		c.HashesSent += e.HashesSent
		c.CandidatesFound += e.CandidatesSeen
		c.MatchesConfirmed += e.MatchesConfirmed
		c.BlockHashesComputed += e.BlockHashesComputed
		c.BytesHashed += e.BytesHashed
		c.CDCChunks += e.CDCChunks
	}
	c.FalseCandidates = c.CandidatesFound - c.MatchesConfirmed
}

// serveStream is the holder's scheduler: every flight sends the stream's next
// frame, then reads and absorbs the peer's answer. A FULL is the stream's last
// frame and goes unanswered.
func (s *session) serveStream(stm *serverStream) error {
	round := 0
	for {
		if err := s.cancelled(); err != nil {
			return err
		}
		ft := stm.next()
		s.span(ft, &round)
		payload, err := stm.build(s.cfg.Workers)
		if err != nil {
			return s.fail(err)
		}
		if err := s.send(ft, payload, framePhase(ft)); err != nil {
			return err
		}
		if ft == wire.FrameFull {
			if err := s.flushAnswer(); err != nil { // the answer to an ACK
				return err
			}
			s.costs.FilesFull += len(stm.failed)
			stm.harvest(s.costs)
			return nil
		}
		if err := s.flush(); err != nil {
			return err
		}
		if ft, payload, err = s.readFrame(&round); err != nil {
			return err
		}
		s.answered()
		if err := stm.absorb(s.cfg.Workers, ft, payload); err != nil {
			return s.fail(err)
		}
		if stm.sent == wire.FrameDelta && len(stm.failed) == 0 {
			stm.harvest(s.costs) // clean ACK
			return nil
		}
	}
}

// clientStream is the stream of a receiving session: the engines of its
// files, what the delta phase left of them, and where fallback content lands.
type clientStream struct {
	// files are what the stream's ack ordinals name: its nEng files with
	// their engines, then the files the verdicts settled (see clientWork):
	// journal verdicts, or failed sum groups' members.
	files []clientFile
	nEng  int
	buf   *wire.Buffer // assembles the replies

	acked   bool     // DELTA handled, ACK built
	done    bool     // nothing more to read: a clean ACK went out, or the FULL came
	failed  []int    // files whose content did not verify, ascending
	results [][]byte // ApplyDelta output per file (nil where it failed)
	fulls   [][]byte // FULL content per failed file
}

// engines are the files the map and delta phases run over.
func (cs *clientStream) engines() []clientFile {
	return cs.files[:cs.nEng]
}

// ordinal is the ack ordinal of files[i]; ordinals ascend with i.
func (cs *clientStream) ordinal(i int) int {
	if i < cs.nEng {
		return i
	}
	return cs.nEng + cs.files[i].ack
}

// handle answers the holder's frame of type ft: it returns the reply, or type
// 0 after a FULL, which goes unanswered.
func (cs *clientStream) handle(workers int, ft byte, payload []byte) (byte, []byte, error) {
	switch {
	case (ft == wire.FrameRoundHashes || ft == wire.FrameConfirm) && !cs.acked:
		reply, err := cs.respond(workers, ft, payload)
		return wire.FrameRoundReply, reply, err
	case ft == wire.FrameDelta && !cs.acked:
		if err := cs.applyDeltas(workers, payload); err != nil {
			return 0, nil, err
		}
		for i := cs.nEng; i < len(cs.files); i++ {
			if cs.files[i].owed {
				cs.failed = append(cs.failed, i)
			}
		}
		cs.buf.Reset()
		cs.buf.Uvarint(uint64(len(cs.failed)))
		for _, i := range cs.failed {
			cs.buf.Uvarint(uint64(cs.ordinal(i)))
		}
		cs.acked = true
		cs.done = len(cs.failed) == 0
		return wire.FrameAck, cs.buf.Build(), nil
	case ft == wire.FrameFull && cs.acked && !cs.done:
		// FULL answers the ACK: exactly the ordinals it listed, in order.
		secs, err := parseSections(payload, cs.ordinal(len(cs.files)-1)+1, true)
		if err != nil {
			return 0, nil, err
		}
		if len(secs) != len(cs.failed) {
			return 0, nil, fmt.Errorf("%w: %d full transfers, acked %d", errIndexList, len(secs), len(cs.failed))
		}
		cs.fulls = make([][]byte, len(secs))
		for k, sec := range secs {
			f := &cs.files[cs.failed[k]]
			if want := cs.ordinal(cs.failed[k]); sec.idx != want {
				return 0, nil, fmt.Errorf("%w: full transfer for %d, acked %d", errIndexList, sec.idx, want)
			}
			if cs.fulls[k], err = delta.DecodeLen(nil, sec.body, f.newLen); err != nil {
				return 0, nil, fmt.Errorf("%w: full transfer for %q: %w", core.ErrProtocol, f.path, err)
			}
			f.bytes += int64(len(sec.body))
		}
		cs.done = true
		return 0, nil, nil
	}
	return 0, nil, errFrame(ft, payload)
}

// applyDeltas handles a DELTA frame: one section per engine, applied across
// workers; files whose whole-file check fails join the ack list.
func (cs *clientStream) applyDeltas(workers int, payload []byte) error {
	files := cs.engines()
	dp := wire.NewParser(payload)
	nd, err := dp.Uvarint()
	if err != nil || nd != uint64(len(files)) {
		return fmt.Errorf("%w: delta count mismatch", core.ErrProtocol)
	}
	sections := make([][]byte, len(files))
	for i := range sections {
		if sections[i], err = dp.Bytes(); err != nil {
			return err
		}
		files[i].bytes += int64(len(sections[i]))
	}
	cs.results = make([][]byte, len(files))
	verifyFailed := make([]bool, len(files))
	err = pool.Do(workers, len(files), func(i int) error {
		data, err := files[i].engine.ApplyDelta(sections[i])
		switch {
		case err == nil:
			cs.results[i] = data
		case errors.Is(err, core.ErrVerifyFailed):
			verifyFailed[i] = true
		default:
			return fmt.Errorf("collection: file %q: %w", files[i].path, err)
		}
		return nil
	})
	for i, bad := range verifyFailed {
		if bad {
			cs.failed = append(cs.failed, i)
		}
	}
	return err
}

// commit writes the finished stream's outcome into the session's result.
func (cs *clientStream) commit(res *Result) {
	k := 0
	for i, f := range cs.engines() {
		if k < len(cs.failed) && cs.failed[k] == i {
			k++
		} else {
			res.Files[f.path] = cs.results[i]
		}
		res.Costs.CDCChunks += f.engine.CDCChunks
	}
	for k, data := range cs.fulls {
		res.Files[cs.files[cs.failed[k]].path] = data
	}
	res.Costs.FilesFull += len(cs.fulls)
	for _, f := range cs.files {
		res.PerFile[f.path] = f.bytes
	}
}

// consumeStream is the receiver's scheduler: every flight reads the holder's
// frame and answers it, until the stream is done — after a clean ACK went
// out, or after the FULL fallback arrived — and then commits it.
func (s *session) consumeStream(cs *clientStream, res *Result) error {
	round := 0
	for !cs.done {
		if err := s.cancelled(); err != nil {
			return err
		}
		ft, payload, err := s.readFrame(&round)
		if err != nil {
			return err
		}
		if ft, payload, err = cs.handle(s.cfg.Workers, ft, payload); err != nil {
			return err
		}
		if ft == 0 {
			s.answered() // the FULL: the answer to our ACK
			continue
		}
		if err := s.send(ft, payload, framePhase(ft)); err != nil {
			return err
		}
		if ft == wire.FrameAck && !cs.done {
			// The ACK listed failures: waiting for the FULL that answers it
			// is already part of the full span.
			s.span(wire.FrameFull, &round)
		}
		if err := s.flushAnswer(); err != nil {
			return err
		}
	}
	cs.commit(res)
	return nil
}
