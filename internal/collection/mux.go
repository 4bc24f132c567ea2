package collection

import (
	"errors"
	"fmt"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/wire"
)

// The per-file phases of every session — map rounds, verification batches,
// delta, ack, full-transfer fallback — are run by one stream scheduler per
// role. A stream is a contiguous run of the session's sync files walking that
// sequence; every cycle of the scheduler advances all unfinished streams by
// one frame each way:
//
//	holder:   ROUND_HASHES ⇄ ROUND_REPLY … CONFIRM ⇄ ROUND_REPLY …   (map)
//	          DELTA ⇄ ACK                                              (delta)
//	          FULL, unanswered, only if the ACK listed failures        (fallback)
//
// File indexes in those frames are local to the stream, ascending, and never
// more than the stream has files; anything else is rejected before a byte is
// allocated for it (parseSections).
//
// How a cycle travels is the framer's business, and the only thing that
// differs between the two session shapes. A session without a MUX_ACK is one
// stream over all its files whose frames go out bare: the cycle is the frame.
// A multiplexed session (hello extension 2) is the N streams the MUX_ACK
// announced, each frame wrapped in a STREAM frame behind a CYCLE(n) count, so
// a stream that finished its map ships its delta while slower streams are
// still mapping and tiny files share their roundtrips. Unwrapped, a stream's
// frames are byte for byte those of a bare session over its files
// (TestMuxWidthOneEqualsLockstep).
//
// A journal hit is the stream with no engines: nothing to map, so its first
// frame is an empty DELTA, and its ack ordinals count journal verdicts.
//
// Workers: the frames of a cycle are handled concurrently, and each handler
// gets max(1, workers/frames) for the engines of its own stream — all of the
// budget for the single stream of a bare session, one worker per stream once
// there are more streams than workers. Frames are assembled in stream order
// from index-addressed slots, so the bytes are the same for every split.

// muxSessionCap bounds the granted stream count per session. The wire cap
// (wire.MaxStreams) guards parsing; this is the scheduling policy: past a few
// dozen streams the per-cycle framing overhead outweighs any extra overlap.
const muxSessionCap = 64

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

// muxPartition splits the sync files into at most `width` contiguous streams,
// balanced by content size so no stream dominates the session's cycle count.
// Returns nil (no multiplexing) when width < 1 or there are no files.
func muxPartition(files []syncFile, width int) []int {
	if width < 1 || len(files) == 0 {
		return nil
	}
	s := min(width, muxSessionCap, len(files))
	total := 0
	for i := range files {
		total += len(files[i].data)
	}
	counts := make([]int, s)
	i, cum := 0, 0
	for k := 0; k < s; k++ {
		maxEnd := len(files) - (s - 1 - k) // leave one file per later stream
		end := i
		thresh := total * (k + 1) / s
		for end < maxEnd && (end == i || cum < thresh) {
			cum += len(files[end].data)
			end++
		}
		counts[k] = end - i
		i = end
	}
	counts[s-1] += len(files) - i
	return counts
}

// errIndexList marks a per-file frame whose index list a well-behaved peer
// cannot have sent: more entries than the stream has files, or indexes that
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

// streamLink is the part of a stream its framer sees: the frame in flight and
// the stream's share of the traffic.
type streamLink struct {
	id int
	// buf assembles the stream's outgoing frames, one per cycle.
	buf *wire.Buffer
	// inner and payload are the frame in flight: built and about to be sent,
	// or just received. inner == 0 means none.
	inner   byte
	payload []byte

	done bool // closed; a frame for it is a protocol violation
	seen int  // the cycle that last delivered a frame (wrapped framer)

	// Wrapped streams report their traffic as one span when they close.
	frames   int
	up, down int64
	start    time.Time
}

// framer puts the frames of one scheduler cycle on the wire and takes the
// peer's off it, accounting both. Calls come from the scheduler goroutine only.
type framer interface {
	// begin opens cycle n. outs are the frames the holder is about to build
	// (types decided, payloads not yet); a receiver passes nil.
	begin(n int, outs []*streamLink)
	// send writes the frame in flight of every link in outs. No flush.
	send(outs []*streamLink) error
	// recv reads the peer's next cycle into the links it names and returns
	// them in wire order. A holder passes the links it expects a reply for —
	// exactly those must answer; a receiver passes nil and takes what comes.
	recv(waiting []*streamLink) ([]*streamLink, error)
	// closed accounts a finished stream; end releases what is left.
	closed(l *streamLink)
	end()
}

// bareFramer frames the one stream of a session without a MUX_ACK: each cycle
// is a single frame, written as it is, and the session's spans follow the
// frame types — one round span per ROUND_HASHES with its verify spans, then
// delta and full.
type bareFramer struct {
	s     *session
	link  [1]*streamLink
	round int
}

func (f *bareFramer) span(inner byte) {
	switch inner {
	case wire.FrameRoundHashes:
		f.round++
		f.s.st.begin(obs.PhaseRound, f.round)
	case wire.FrameConfirm:
		f.s.st.begin(obs.PhaseVerify, f.round)
	case wire.FrameDelta:
		f.s.st.begin(obs.PhaseDelta, 0)
	case wire.FrameFull:
		f.s.st.begin(obs.PhaseFull, 0)
	}
}

func (f *bareFramer) begin(_ int, outs []*streamLink) {
	if len(outs) > 0 {
		f.span(outs[0].inner)
	}
}

func (f *bareFramer) send(outs []*streamLink) error {
	l := outs[0]
	err := f.s.send(l.inner, l.payload, framePhase(l.inner))
	if l.inner == wire.FrameAck && !l.done {
		// The ACK listed failures: waiting for the FULL that answers it is
		// already part of the full span.
		f.span(wire.FrameFull)
	}
	return err
}

func (f *bareFramer) recv([]*streamLink) ([]*streamLink, error) {
	ft, payload, err := f.s.read()
	if err != nil {
		return nil, err
	}
	f.span(ft)
	f.s.cost(f.s.in(), framePhase(ft), len(payload))
	f.link[0].inner, f.link[0].payload = ft, payload
	return f.link[:], nil
}

func (f *bareFramer) closed(*streamLink) {}
func (f *bareFramer) end()               {}

// wrappedFramer frames the streams of a multiplexed session: CYCLE(n), then n
// STREAM frames in stream order. Stream frames are accounted to their stream
// (one span each, when it closes); the CYCLE frames to one round span per
// cycle. A serving session with a round timeout also bounds every cycle by
// it: every open stream waits in every cycle, so one stalled stream fails the
// session within its budget while the others advance.
type wrappedFramer struct {
	s     *session
	links []streamLink // by stream id
	open  int
	cycle int
	ins   []*streamLink

	gauge   *obs.Gauge    // streams-active, serving side only
	timeout time.Duration // the serving side's round timeout; 0: none
}

func (f *wrappedFramer) begin(n int, _ []*streamLink) {
	f.cycle = n
	f.s.st.begin(obs.PhaseRound, n)
}

// account adds one STREAM frame to its stream's span and the session's costs.
func (f *wrappedFramer) account(l *streamLink, d stats.Direction, payload int) {
	addCost(f.s.costs, d, framePhase(l.inner), payload)
	l.frames++
	if n := int64(payload + frameOverhead(payload)); d == stats.C2S {
		l.up += n
	} else {
		l.down += n
	}
}

// roundFrom sets the session's round deadline one round timeout after t.
func (f *wrappedFramer) roundFrom(t time.Time) {
	if f.timeout > 0 {
		f.s.ts.SetPhaseDeadline("round", t.Add(f.timeout))
	}
}

func (f *wrappedFramer) send(outs []*streamLink) error {
	s := f.s
	if err := s.send(wire.FrameCycle, wire.EncodeCycle(len(outs)), stats.PhaseControl); err != nil {
		return err
	}
	for _, l := range outs {
		s.buf.Reset()
		wire.AppendStreamFrame(s.buf, l.id, l.inner, l.payload)
		if err := s.fw.WriteFrame(wire.FrameStream, s.buf.Build()); err != nil {
			return err
		}
		f.account(l, s.out(), s.buf.Len())
	}
	return nil
}

// recv reads one cycle. Under a round timeout the cycle must be in within it
// of the read's start, and the answer the holder sends next within it of the
// cycle's first STREAM frame.
func (f *wrappedFramer) recv(waiting []*streamLink) ([]*streamLink, error) {
	s := f.s
	f.roundFrom(time.Now())
	cp, err := s.expect(wire.FrameCycle, wire.MaxFrameSize)
	if err != nil {
		return nil, err
	}
	s.cost(s.in(), stats.PhaseControl, len(cp))
	n, err := wire.ParseCycle(cp)
	if err != nil {
		return nil, s.fail(err)
	}
	if waiting != nil && n != len(waiting) {
		return nil, s.fail(fmt.Errorf("%w: reply cycle of %d frames, want %d", core.ErrProtocol, n, len(waiting)))
	} else if n == 0 || n > f.open {
		return nil, s.fail(fmt.Errorf("%w: cycle of %d frames with %d live streams", core.ErrProtocol, n, f.open))
	}
	f.ins = f.ins[:0]
	var first time.Time
	for k := 0; k < n; k++ {
		sp, err := s.expect(wire.FrameStream, wire.MaxFrameSize)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			first = time.Now()
		}
		sf, err := wire.ParseStreamFrame(sp, len(f.links))
		if err != nil {
			return nil, s.fail(err)
		}
		l := &f.links[sf.ID]
		if l.done || l.seen == f.cycle {
			return nil, s.fail(fmt.Errorf("%w: unexpected frame for stream %d", core.ErrProtocol, sf.ID))
		}
		l.seen = f.cycle
		l.inner, l.payload = sf.Type, sf.Payload
		f.account(l, s.in(), len(sp))
		f.ins = append(f.ins, l)
	}
	f.roundFrom(first)
	return f.ins, nil
}

func (f *wrappedFramer) closed(l *streamLink) {
	f.open--
	f.s.st.stream(l)
	if f.gauge != nil {
		f.gauge.Dec()
	}
}

func (f *wrappedFramer) end() {
	if f.gauge != nil {
		f.gauge.Add(-int64(f.open))
	}
	f.s.ts.SetPhaseDeadline("", time.Time{})
}

// newFramer makes the links of a session's streams and picks their framing:
// wrapped when the session negotiated streams — counts is the MUX_ACK's
// partition of its files —, bare for its single stream over all of them
// otherwise; it returns the files each stream has. The bare stream assembles
// its frames in the session scratch; the wrapped framer needs that for the
// STREAM wrapping, so wrapped streams get a buffer each. gauge and timeout are
// the serving side's streams-active gauge and round timeout: a client passes
// nil and 0.
func (s *session) newFramer(counts []int, files int, gauge *obs.Gauge, timeout time.Duration) (framer, []streamLink, []int) {
	if counts == nil {
		links := []streamLink{{buf: s.buf}}
		return &bareFramer{s: s, link: [1]*streamLink{&links[0]}}, links, []int{files}
	}
	n := len(counts)
	links := make([]streamLink, n)
	f := &wrappedFramer{s: s, links: links, open: n, gauge: gauge, timeout: timeout}
	now := time.Now()
	for k := range links {
		links[k] = streamLink{id: k, buf: wire.NewBuffer(1024), start: now}
	}
	if gauge != nil {
		gauge.Add(int64(n))
	}
	return f, links, counts
}

// handlerBudget is the worker-budget rule: n handlers run concurrently, each
// with an equal share of the session's workers for its own engines.
func (s *session) handlerBudget(n int) int {
	return max(1, pool.Workers(s.cfg.Workers)/n)
}

// serverStream is one stream of a serving session: its files' engines and
// where the stream stands in the phase sequence. What it sends next follows
// from what it holds: failed ack indexes → FULL; engines awaiting a
// verification batch → CONFIRM; engines with map rounds left → ROUND_HASHES;
// none of those → DELTA.
type serverStream struct {
	*streamLink
	files   []syncFile
	sent    byte      // type of the frame the peer is answering
	active  []int     // engines in the current ROUND_HASHES
	pending []int     // engines awaiting a verification batch
	failed  []section // acked ordinals needing a full transfer
	// settled are the ack ordinals past the engines (stream 0 only): files
	// the verdicts settled without an engine, full(i, settled[i]) the whole
	// content of the i-th (see serverWork).
	settled []ManifestEntry
	full    func(i int, e ManifestEntry) ([]byte, error)
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

// next decides the stream's frame for the coming cycle.
func (stm *serverStream) next() {
	switch {
	case len(stm.failed) > 0:
		stm.inner = wire.FrameFull
	case len(stm.pending) > 0:
		stm.inner = wire.FrameConfirm
	default:
		stm.active = stm.active[:0]
		for i := range stm.files {
			if stm.files[i].engine.Active() {
				stm.active = append(stm.active, i)
			}
		}
		stm.inner = wire.FrameDelta
		if len(stm.active) > 0 {
			stm.inner = wire.FrameRoundHashes
		}
	}
	stm.sent = stm.inner
}

// build assembles the payload of the frame next decided on.
func (stm *serverStream) build(workers int) error {
	b := stm.buf
	b.Reset()
	switch stm.inner {
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
				return err
			}
			b.Uvarint(uint64(f.idx))
			b.Bytes(delta.Compress(data))
		}
	}
	stm.payload = b.Build()
	return nil
}

// absorb advances the stream with the peer's answer to the frame it sent.
func (stm *serverStream) absorb(workers int) (err error) {
	switch {
	case stm.inner == wire.FrameRoundReply && (stm.sent == wire.FrameRoundHashes || stm.sent == wire.FrameConfirm):
		stm.pending, err = stm.absorbReplies(workers, stm.sent == wire.FrameRoundHashes)
	case stm.inner == wire.FrameAck && stm.sent == wire.FrameDelta:
		stm.failed, err = parseSections(stm.payload, len(stm.files)+len(stm.settled), false)
	default:
		err = fmt.Errorf("%w: stream %d: unexpected %s after %s", core.ErrProtocol, stm.id, wire.FrameName(stm.inner), wire.FrameName(stm.sent))
	}
	return err
}

// absorbReplies feeds one ROUND_REPLY (the first replies to a round's hashes,
// or a later verification batch) to the stream's engines and returns the
// files that still need another batch.
func (stm *serverStream) absorbReplies(workers int, first bool) ([]int, error) {
	jobs, err := parseSections(stm.payload, len(stm.files), true)
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

// serveStreams is the holder's scheduler: every cycle sends one frame per
// unfinished stream in one flush, then reads and absorbs the peer's answers.
// FULL frames are a stream's last and go unanswered.
func (s *session) serveStreams(streams []*serverStream, f framer, metrics *obs.Registry) error {
	defer f.end()
	live := len(streams)
	closeStream := func(stm *serverStream) {
		stm.harvest(s.costs)
		stm.done = true
		f.closed(stm.streamLink)
		live--
	}
	outs := make([]*streamLink, 0, live)
	waiting := make([]*streamLink, 0, live)
	for cycle := 1; live > 0; cycle++ {
		if err := s.cancelled(); err != nil {
			return err
		}
		outs, waiting = outs[:0], waiting[:0]
		rounds := 0
		for _, stm := range streams {
			if stm.done {
				continue
			}
			stm.next()
			outs = append(outs, stm.streamLink)
			if stm.inner != wire.FrameFull {
				waiting = append(waiting, stm.streamLink)
			}
			if stm.inner == wire.FrameRoundHashes || stm.inner == wire.FrameConfirm {
				rounds++
			}
		}
		f.begin(cycle, outs)
		budget := s.handlerBudget(len(outs))
		err := pool.Do(s.cfg.Workers, len(outs), func(k int) error {
			return streams[outs[k].id].build(budget)
		})
		if err != nil {
			return s.fail(err)
		}
		if err = f.send(outs); err != nil {
			return err
		}
		if len(waiting) < len(outs) {
			err = s.flushAnswer() // the cycle carries a FULL: the answer to an ACK
		} else {
			err = s.flush()
		}
		if err != nil {
			return err
		}
		for _, l := range outs {
			if l.inner == wire.FrameFull {
				stm := streams[l.id]
				s.costs.FilesFull += len(stm.failed)
				closeStream(stm)
			}
		}
		if rounds >= 2 {
			// Rounds that shared this cycle's flush instead of each paying
			// their own roundtrip.
			metrics.Counter(obs.MetricRoundsBatched).Add(int64(rounds))
		}
		if len(waiting) == 0 {
			continue
		}

		ins, err := f.recv(waiting)
		if err != nil {
			return err
		}
		s.answered()
		budget = s.handlerBudget(len(ins))
		if err := pool.Do(s.cfg.Workers, len(ins), func(k int) error {
			return streams[ins[k].id].absorb(budget)
		}); err != nil {
			return s.fail(err)
		}
		for _, l := range ins {
			if stm := streams[l.id]; stm.sent == wire.FrameDelta && len(stm.failed) == 0 {
				closeStream(stm) // clean ACK
			}
		}
	}
	return nil
}

// clientStream is one stream of a receiving session: the engines of its files,
// what the delta phase left of them, and where fallback content lands.
type clientStream struct {
	*streamLink
	// files are what the stream's ack ordinals name: its nEng files with
	// their engines, then, on stream 0, the files the verdicts settled (see
	// clientWork): journal verdicts, or failed sum groups' members.
	files []clientFile
	nEng  int

	acked   bool     // DELTA handled, ACK built
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

// handle answers the frame in flight: it leaves the reply in flight, or none
// after a FULL. It touches only the stream's own state, so the handlers of a
// cycle run concurrently.
func (cs *clientStream) handle(workers int) error {
	inner, payload := cs.inner, cs.payload
	cs.inner, cs.payload = 0, nil
	switch {
	case (inner == wire.FrameRoundHashes || inner == wire.FrameConfirm) && !cs.acked:
		reply, err := cs.respond(workers, inner, payload)
		if err != nil {
			return err
		}
		cs.inner, cs.payload = wire.FrameRoundReply, reply
	case inner == wire.FrameDelta && !cs.acked:
		if err := cs.applyDeltas(workers, payload); err != nil {
			return err
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
		cs.inner, cs.payload = wire.FrameAck, cs.buf.Build()
		cs.acked = true
		cs.done = len(cs.failed) == 0
	case inner == wire.FrameFull && cs.acked && !cs.done:
		// FULL answers the ACK: exactly the ordinals it listed, in order.
		secs, err := parseSections(payload, cs.ordinal(len(cs.files)-1)+1, true)
		if err != nil {
			return err
		}
		if len(secs) != len(cs.failed) {
			return fmt.Errorf("%w: %d full transfers, acked %d", errIndexList, len(secs), len(cs.failed))
		}
		cs.fulls = make([][]byte, len(secs))
		for k, sec := range secs {
			f := &cs.files[cs.failed[k]]
			if want := cs.ordinal(cs.failed[k]); sec.idx != want {
				return fmt.Errorf("%w: full transfer for %d, acked %d", errIndexList, sec.idx, want)
			}
			if cs.fulls[k], err = delta.DecodeLen(nil, sec.body, f.newLen); err != nil {
				return fmt.Errorf("%w: full transfer for %q: %w", core.ErrProtocol, f.path, err)
			}
			f.bytes += int64(len(sec.body))
		}
		cs.done = true
	default:
		return fmt.Errorf("%w: stream %d: unexpected frame %s", core.ErrProtocol, cs.id, wire.FrameName(inner))
	}
	return nil
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

// commit writes a finished stream's outcome into the session's result.
// Scheduler goroutine only: the result map is shared across streams.
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

// consumeStreams is the receiver's scheduler: every cycle reads the holder's
// frames, handles them concurrently, replies in the order they came, and
// commits the streams that finished — after a clean ACK went out, or after
// the FULL fallback arrived.
func (s *session) consumeStreams(streams []*clientStream, f framer, res *Result) error {
	defer f.end()
	live := len(streams)
	outs := make([]*streamLink, 0, live)
	for cycle := 1; live > 0; cycle++ {
		if err := s.cancelled(); err != nil {
			return err
		}
		f.begin(cycle, nil)
		ins, err := f.recv(nil)
		if err != nil {
			return err
		}
		budget := s.handlerBudget(len(ins))
		if err := pool.Do(s.cfg.Workers, len(ins), func(k int) error {
			return streams[ins[k].id].handle(budget)
		}); err != nil {
			return err
		}
		outs = outs[:0]
		for _, l := range ins {
			if l.inner != 0 {
				outs = append(outs, l)
			}
		}
		if len(outs) < len(ins) {
			s.answered() // the cycle carried a FULL: the answer to our ACK
		}
		if len(outs) > 0 {
			if err := f.send(outs); err != nil {
				return err
			}
			if err := s.flushAnswer(); err != nil {
				return err
			}
		}
		for _, l := range ins {
			if cs := streams[l.id]; cs.done {
				cs.commit(res)
				f.closed(l)
				live--
			}
		}
	}
	return nil
}
