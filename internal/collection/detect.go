package collection

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"path"
	"slices"
	"sync"

	"msync/internal/core"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/wire"
)

// Change detection opens every session: the receiver tells the holder what it
// has, and the holder answers with VERDICTS — the session config, one verdict
// per file the receiver named, the files it lacks, then the detector's
// trailer. Each mode of the hello is one detector type per end, picked once
// (newHolderDetector, newReceiverDetector):
//
//	flat: MANIFEST, MANIFEST_PACKED, MANIFEST_SHORT, MANIFEST_TABLE or
//	      MANIFEST_REF up, and MANIFEST_WANT down when the holder cannot
//	      resolve the REF or peel the table; VERDICTS end with the group sums
//	      answering MANIFEST_SHORT or the holder's list digest answering
//	      MANIFEST_TABLE, then the holder's version for a receiver that
//	      announced one.
//	tree: TREE queries up and TREE replies down (TREE_ACK before the first),
//	      then WANT up; no trailer.
//
// Behind the detectors each end walks the verdicts once (holder: verdictWalk,
// receiver: session.verdicts), and a file settled without an engine that may
// still need a FULL — a journal verdict, a member of a sum group — is one of
// the ack ordinals past the engines, on both ends.

// answer is one file the holder's verdict walk answers for: a change of
// filelist.Diff(the receiver's list, the holder's) — an added file rides in the
// new-files trailer, a deleted or modified one has the verdict of its place in
// the receiver's list — with the journal delta that carries it, if any, and
// the basis the receiver has for it.
type answer struct {
	filelist.Change
	payload []byte
	have    byte   // wantHave, wantAbsent or wantAltBasis
	name    []byte // after a MANIFEST_TABLE: the path hash naming the receiver's file, 8 bytes little-endian
}

// holderDetector is the holder's half of one change-detection mode.
type holderDetector interface {
	// detect reads the receiver's side of change detection, answering
	// whatever the mode exchanges before VERDICTS, and returns the list
	// VERDICTS answers entry by entry and the answers, in path order. own is
	// the holder's list, mtree the trees over it.
	detect(own []ManifestEntry, mtree *merkle.TreeCache) ([]ManifestEntry, []answer, error)
	// trailer ends VERDICTS with the detector's part. Files it settles that
	// a FULL may yet be asked for join work.settled, their content
	// work.full's.
	trailer(vb *wire.Buffer, list []ManifestEntry, work *serverWork)
}

// newHolderDetector is the holder's one reading of the hello's mode, which
// the hello's parse refused unless it is one of the two.
func newHolderDetector(s *session) holderDetector {
	if s.mode == modeTree {
		return treeHolder{s}
	}
	return &flatHolder{s: s, version: -1}
}

// flatHolder reads the receiver's flat list. A receiver announcing a version
// above 0 names the list by its digest (MANIFEST_REF), which a journal hit
// never needs: the stored delta's changes are the answers, payloads inline. A
// miss asks for the list with MANIFEST_WANT — one roundtrip — and goes on as
// for a list sent outright.
type flatHolder struct {
	s       *session
	store   VersionedSource // set on a journal hit: where settled files' content is
	version int64           // ends VERDICTS unless -1: the holder's current version
	// kept indexes the files of a MANIFEST_SHORT list that the verdicts
	// judge unchanged, whose group sums answer it; nil otherwise.
	kept []int
	// digest is the holder's list digest, which ends VERDICTS that answer a
	// peeled MANIFEST_TABLE; nil otherwise.
	digest []byte
}

// manifestFrame reads the receiver's list frame: MANIFEST, or MANIFEST_PACKED
// or MANIFEST_SHORT decoded here into m — or, in the receiver's first flight,
// the MANIFEST_TABLE that holds it or the 16-byte MANIFEST_REF that names it.
func (d *flatHolder) manifestFrame(first bool) (ft byte, raw []byte, m []ManifestEntry, err error) {
	s := d.s
	if ft, raw, err = s.read(); err != nil {
		return 0, nil, nil, err
	}
	s.cost(stats.C2S, stats.PhaseControl, len(raw))
	switch {
	case ft == wire.FrameManifestPacked:
		m, err = unpackManifest(raw, md4.Size)
	case ft == wire.FrameManifestShort:
		m, err = unpackManifest(raw, shortSum)
	case ft == wire.FrameManifest, first && (ft == wire.FrameManifestTable || ft == wire.FrameManifestRef && len(raw) == md4.Size):
	default:
		err = errFrame(ft, raw)
	}
	return ft, raw, m, err
}

func (d *flatHolder) detect(own []ManifestEntry, mtree *merkle.TreeCache) ([]ManifestEntry, []answer, error) {
	s := d.s
	ft, raw, list, err := d.manifestFrame(true)
	if err != nil {
		return nil, nil, err
	}
	ref := ft == wire.FrameManifestRef
	vs, stored := s.src.(VersionedSource)
	versioned := stored && s.ext.announce >= 0
	if versioned || ref {
		miss, current := "unversioned", uint64(0) // no store here
		if stored {
			miss, current = "not_announced", vs.CurrentVersion() // a MANIFEST_REF whose hello names no version
		}
		if versioned {
			// The announcing receiver learns the current version even on a
			// miss, so its next sync can announce something useful.
			d.version = int64(current)
			digest := md4.Sum(raw)
			switch ft {
			case wire.FrameManifestRef:
				copy(digest[:], raw) // by reference: the payload is the digest
			case wire.FrameManifestPacked:
				digest = ManifestDigest(list) // the digest is the list's, not the encoding's
			}
			vd, ok := vs.VersionDelta(uint64(s.ext.announce), digest, mtree.Fingerprint())
			if ok {
				s.costs.JournalHits++
				d.store, d.version = vs, int64(vd.Current)
				answers := make([]answer, len(vd.Changes))
				for k, c := range vd.Changes {
					answers[k] = answer{Change: c.Change, payload: c.Payload}
				}
				return vd.BaseManifest, answers, nil
			}
			miss = vd.Miss
		}
		s.costs.JournalMisses++
		if s.ext.announce > 0 || ref { // announcing 0 asks for the version: nothing fell back
			s.st.fellBack("journal_miss:"+miss, "msync: journal miss", "base", s.ext.announce, "current", current, "reason", miss)
		}
		if ref {
			ft, raw, list, err = d.ask()
		}
	}
	if err == nil && ft == wire.FrameManifestTable {
		var answers []answer
		if list, answers, err = d.peel(raw, own, mtree.Fingerprint()); err != nil || d.digest != nil {
			return list, answers, err
		}
		s.costs.TablePeelsFailed++
		ft, raw, list, err = d.ask()
	}
	if err == nil && ft == wire.FrameManifest {
		list, err = decodeManifest(raw)
	}
	if err != nil {
		return nil, nil, err
	}
	if ft == wire.FrameManifestShort {
		d.kept = widen(list, own)
	}
	changes := filelist.Diff(list, own)
	answers := make([]answer, len(changes))
	for k, c := range changes {
		answers[k] = answer{Change: c, have: wantHave}
	}
	return list, answers, nil
}

// ask sends MANIFEST_WANT, an answer of its own, and reads the list it asks
// for: MANIFEST, MANIFEST_PACKED or MANIFEST_SHORT.
func (d *flatHolder) ask() (byte, []byte, []ManifestEntry, error) {
	err := d.s.send(wire.FrameManifestWant, nil, stats.PhaseControl)
	if err == nil {
		err = d.s.flushAnswer()
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return d.manifestFrame(false)
}

// peel answers a MANIFEST_TABLE with the changes filelist.Reconcile peels out
// of it. The answers name the receiver's files by path hash — the modified
// ones in path order, then the deleted ones by hash — and the list they
// answer is those files, a deleted one's path unknown here. A table that does
// not peel gets no answers and leaves digest nil: the holder asks for the
// list. One no receiver sends is a protocol error; a receiver whose table
// peels into anything but the difference fails its own list digest check.
func (d *flatHolder) peel(raw []byte, own []ManifestEntry, digest [md4.Size]byte) ([]ManifestEntry, []answer, error) {
	p := wire.NewParser(raw)
	t, err := filelist.ParseTable(p)
	if err == nil && p.Remaining() != 0 {
		err = fmt.Errorf("%d bytes after the table", p.Remaining())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: MANIFEST_TABLE: %w", core.ErrProtocol, err)
	}
	changes, gone, ok := t.Reconcile(own)
	if !ok {
		return nil, nil, nil
	}
	var list []ManifestEntry
	var answers []answer
	for _, c := range changes {
		a := answer{Change: c, have: wantHave}
		if c.Op == filelist.OpModify {
			list, a.name = append(list, c.Old), binary.LittleEndian.AppendUint64(nil, filelist.ElementOf(c.New).Key)
		}
		answers = append(answers, a)
	}
	for _, key := range gone {
		list = append(list, ManifestEntry{})
		answers = append(answers, answer{Change: filelist.Change{Op: filelist.OpDelete}, name: binary.LittleEndian.AppendUint64(nil, key)})
	}
	d.s.costs.FilesUnchanged += len(own) - len(changes) // as many as the receiver keeps
	d.digest = digest[:]
	return list, answers, nil
}

// trailer writes the group sums a MANIFEST_SHORT is answered with — whose
// unchanged files are then the settled ones, acked by their place among them
// when their group fails — or the list digest a MANIFEST_TABLE is, and the
// version.
func (d *flatHolder) trailer(vb *wire.Buffer, list []ManifestEntry, work *serverWork) {
	vb.Raw(groupDigests(list, d.kept))
	for _, i := range d.kept {
		work.settled = append(work.settled, list[i])
	}
	work.full = d.full
	vb.Raw(d.digest)
	if d.version >= 0 {
		vb.Uvarint(uint64(d.version))
	}
}

// full is the content of settled file e, the i-th: after a journal hit the
// stored version's, whose delta the receiver could not apply; otherwise an
// unchanged file's, one of a group whose sum failed (counted once per group:
// the receiver acks every member).
func (d *flatHolder) full(i int, e ManifestEntry) ([]byte, error) {
	if d.store == nil {
		if i%sumGroup == 0 {
			d.s.costs.SumGroupsFailed++
		}
		d.s.costs.FilesUnchanged--
		return d.s.src.Load(e.Path)
	}
	data, err := d.store.VersionContent(e.Sum)
	if err != nil {
		err = fmt.Errorf("collection: journal fallback %q: %w", e.Path, err)
	}
	return data, err
}

// treeHolder answers the receiver's merkle descent, then its WANT. Whatever
// the holder grants of the tree capabilities the hello requested is announced
// with a TREE_ACK before the first TREE reply (same flush, no extra
// roundtrip); with none requested the exchange is byte-identical to a
// pre-extension session.
type treeHolder struct{ s *session }

func (d treeHolder) detect(own []ManifestEntry, mtree *merkle.TreeCache) ([]ManifestEntry, []answer, error) {
	s, granted := d.s, d.s.ext.treeCaps
	resp := merkle.NewResponderCached(mtree)
	resp.Speculative = granted&treeCapSpec != 0
	for round := 1; ; round++ {
		ft, payload, err := s.read()
		switch {
		case err != nil:
			return nil, nil, err
		case ft == wire.FrameWant:
			s.cost(stats.C2S, stats.PhaseControl, len(payload))
			s.st.begin(obs.PhaseHandshake, 0)
			return resolveWant(payload, own)
		case ft != wire.FrameTree:
			return nil, nil, errFrame(ft, payload)
		}
		s.st.begin(obs.PhaseTree, round)
		s.cost(stats.C2S, stats.PhaseControl, len(payload))
		reply, err := resp.Respond(payload)
		if err == nil && round == 1 && granted != 0 {
			err = s.send(wire.FrameTreeAck, wire.AppendUvarint(nil, uint64(granted)), stats.PhaseControl)
		}
		if err == nil {
			err = s.send(wire.FrameTree, reply, stats.PhaseControl)
		}
		if err == nil {
			err = s.flushAnswer()
		}
		if err != nil {
			return nil, nil, err
		}
		s.costs.TreeRounds++
	}
}

// resolveWant reads a WANT against the holder's own list: entries of a path
// and a have byte the protocol defines, each path one of own's and after the
// one before it. Anything else is refused before a file is loaded, so a
// receiver names only files the holder lists, each once. Every entry answers
// itself, modified.
func resolveWant(want []byte, own []ManifestEntry) ([]ManifestEntry, []answer, error) {
	wp := wire.NewParser(want)
	n, err := wp.Uvarint()
	if err == nil && n > uint64(min(len(own), wp.Remaining()/2)) { // an entry is 2 bytes or more
		err = fmt.Errorf("%d entries for %d files in %d bytes", n, len(own), len(want))
	}
	var list []ManifestEntry
	var answers []answer
	for j := 0; err == nil && len(answers) < int(n); j++ {
		path, err1 := wp.String()
		have, err2 := wp.Byte()
		for j < len(own) && own[j].Path < path {
			j++
		}
		switch err = cmp.Or(err1, err2); {
		case err != nil:
		case have > wantAltBasis:
			err = fmt.Errorf("entry %d has %d", len(answers), have)
		case j == len(own) || own[j].Path != path:
			err = fmt.Errorf("entry %d names %q: not a file here, or not after the one before", len(answers), path)
		default:
			list = append(list, own[j])
			answers = append(answers, answer{Change: filelist.Change{Op: filelist.OpModify, Old: own[j], New: own[j]}, have: have})
		}
	}
	if err == nil && wp.Remaining() != 0 {
		err = fmt.Errorf("%d bytes after %d entries", wp.Remaining(), n)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: WANT: %w", core.ErrProtocol, err)
	}
	return list, answers, nil
}

// trailer: tree VERDICTS end with the new files, and settle nothing.
func (treeHolder) trailer(*wire.Buffer, []ManifestEntry, *serverWork) {}

// receiverDetector is the receiver's half of one change-detection mode.
type receiverDetector interface {
	// announce tells the holder what this end has, settling any path the
	// mode decides on its own, and returns the list VERDICTS answers entry
	// by entry. manifest is this end's list. No flush.
	announce(manifest []ManifestEntry) ([]ManifestEntry, error)
	// read returns the holder's first frame after the announcement, having
	// served whatever the holder asked of it first.
	read() (byte, []byte, error)
	// bases are the alternate local bases a sync verdict for path runs on.
	bases(path string) []string
	// named maps each path hash of list to its place in it when the
	// verdicts name the files they judge (they answer a MANIFEST_TABLE);
	// nil when they judge every entry of list in turn.
	named() map[uint64]int
	// trailer reads the detector's part of VERDICTS; kept indexes the
	// entries of list judged unchanged. Those that turn out not to be join
	// work.settled.
	trailer(vp *wire.Parser, list []ManifestEntry, kept []int, work *clientWork) error
}

// newReceiverDetector is the receiver's one reading of the hello's mode. res
// is where settled paths go; trees is the tree cache carried across sessions
// (nil: none).
func (s *session) newReceiverDetector(res *Result, trees *treeState) receiverDetector {
	if s.mode == modeTree {
		return &treeReceiver{s: s, res: res, trees: trees}
	}
	return &flatReceiver{s: s, res: res}
}

// flatReceiver sends this end's list: by reference when it announces a
// stored version above 0 (the holder's store may hold this very list), the
// list itself withheld until a MANIFEST_WANT asks for it; as a table when it
// is long, the list kept for a MANIFEST_WANT likewise.
type flatReceiver struct {
	s        *session
	res      *Result
	withheld []ManifestEntry // announced by reference or in a table, not yet sent
	short    bool            // the list went as MANIFEST_SHORT: group sums answer it
	// names maps each path hash of a list sent in a MANIFEST_TABLE to its
	// place in the list; nil when the list went otherwise.
	names map[uint64]int
}

// tableMin is the shortest MANIFEST_SHORT a receiver sends as a table
// instead: four roundtrips' worth of the paper's DSL up-link (4 × 80 ms ×
// 32 000 B/s), so that a table the holder cannot peel costs about one
// roundtrip more than the short list, and one it peels saves most of it.
const tableMin = 10 << 10

func (d *flatReceiver) announce(manifest []ManifestEntry) ([]ManifestEntry, error) {
	return manifest, d.send(manifest, true)
}

// send sends the list; first is the receiver's first flight, not an answer to
// MANIFEST_WANT. A first flight announcing a stored version above 0 sends the
// digest of its MANIFEST encoding as MANIFEST_REF. Otherwise, where packing
// pays — the packed frame strictly shorter than MANIFEST — it is
// MANIFEST_SHORT, or MANIFEST_PACKED when only the wider frame is within the
// holder's caps; MANIFEST when neither is. A first flight whose
// MANIFEST_SHORT is tableMin bytes or more sends MANIFEST_TABLE instead if
// that is at most half as long and no two paths share a hash. The choice is
// noted on the handshake span.
func (d *flatReceiver) send(manifest []ManifestEntry, first bool) error {
	s := d.s
	s.buf.Reset()
	filelist.Append(s.buf, manifest)
	legacy := s.buf.Build()
	if first && s.ext.announce > 0 {
		digest := md4.Sum(legacy)
		d.withheld = manifest
		return s.send(wire.FrameManifestRef, digest[:], stats.PhaseControl)
	}
	ft, payload := wire.FrameManifest, legacy
	short, fits := packManifest(manifest, shortSum)
	packed := len(short) + (md4.Size-shortSum)*len(manifest) // the same column, wider sums
	switch {
	case packed >= len(legacy):
	case fits:
		ft, payload, d.short = wire.FrameManifestShort, short, true
		if first && len(short) >= tableMin {
			var table []byte
			if table, d.names = tableOf(manifest); d.names != nil && len(table) <= len(short)/2 {
				ft, payload, d.short, d.withheld = wire.FrameManifestTable, table, false, manifest
			} else {
				d.names = nil
			}
		}
	default:
		if p, fits := packManifest(manifest, md4.Size); fits {
			ft, payload = wire.FrameManifestPacked, p
		}
	}
	s.st.manifestSent(wire.FrameName(ft), len(short), packed, len(legacy))
	return s.send(ft, payload, stats.PhaseControl)
}

// tableOf is the MANIFEST_TABLE payload of list, sized by
// filelist.TableCells, and the place in list of each path hash; no names when
// two paths share one.
func tableOf(list []ManifestEntry) ([]byte, map[uint64]int) {
	t := filelist.NewTable(filelist.TableCells(len(list)))
	names := make(map[uint64]int, len(list))
	for i, e := range list {
		el := filelist.ElementOf(e)
		if _, dup := names[el.Key]; dup {
			return nil, nil
		}
		names[el.Key] = i
		t.Insert(el)
	}
	b := wire.NewBuffer(filelist.TableCells(len(list)) * 20)
	t.Append(b)
	return b.Build(), names
}

// read answers a holder that could not resolve this end's MANIFEST_REF, or
// peel its MANIFEST_TABLE (counted, noted and logged once): it asks, once
// and with an empty MANIFEST_WANT, for the list withheld — an answer, so a
// roundtrip — and its answer follows the list sent here, never as a table.
func (d *flatReceiver) read() (byte, []byte, error) {
	s := d.s
	ft, payload, err := s.read()
	if err == nil && d.withheld != nil && ft == wire.FrameManifestWant && len(payload) == 0 {
		s.cost(stats.S2C, stats.PhaseControl, 0)
		s.answered()
		if d.names != nil {
			d.names = nil
			s.costs.TablePeelsFailed++
			s.st.fellBack("table_peel_failed", "msync: table peel failed", "files", len(d.withheld))
		}
		if err = d.send(d.withheld, false); err == nil {
			err = s.flush()
		}
		if d.withheld = nil; err == nil {
			ft, payload, err = s.read()
		}
	}
	return ft, payload, err
}

func (*flatReceiver) bases(string) []string { return nil }

func (d *flatReceiver) named() map[uint64]int { return d.names }

// trailer checks the group sums that answer a MANIFEST_SHORT — one MD4 per
// sumGroup files judged unchanged — against this end's own full sums: the
// files of a group that differs are unchanged no longer, and join the ack
// ordinals past the engines by their place among the unchanged files, so the
// holder's FULL brings them whole. After a MANIFEST_TABLE it reads the
// holder's list digest instead, which this end's list must have once the
// session is applied (checkList). Then the holder's version, if it sent one.
func (d *flatReceiver) trailer(vp *wire.Parser, list []ManifestEntry, kept []int, work *clientWork) error {
	s, res := d.s, d.res
	if d.short {
		want := groupDigests(list, kept)
		got, err := vp.Raw(len(want))
		if err != nil || len(work.settled) > 0 { // journal verdicts never answer MANIFEST_SHORT
			return fmt.Errorf("%w: VERDICTS without the group sums of %d files", core.ErrProtocol, len(kept))
		}
		for k := 0; k < len(kept); k += sumGroup {
			if at := k / sumGroup * md4.Size; string(want[at:at+md4.Size]) == string(got[at:at+md4.Size]) {
				continue
			}
			s.costs.SumGroupsFailed++
			for u := k; u < min(k+sumGroup, len(kept)); u++ {
				e := list[kept[u]]
				work.settled = append(work.settled, clientFile{path: e.Path, newLen: e.Len, ack: u, owed: true})
			}
		}
		if n := s.costs.SumGroupsFailed; n > 0 {
			s.costs.FilesUnchanged -= len(work.settled)
			res.Unchanged = slices.DeleteFunc(res.Unchanged, func(p string) bool {
				return slices.ContainsFunc(work.settled, func(f clientFile) bool { return f.path == p })
			})
			s.st.fellBack(fmt.Sprintf("sum_groups_failed:%d", n), "msync: sum groups failed", "groups", n, "files", len(work.settled))
		}
	}
	if d.names != nil {
		if work.digest, _ = vp.Raw(md4.Size); work.digest == nil {
			return fmt.Errorf("%w: VERDICTS without the holder's list digest", core.ErrProtocol)
		}
	}
	if s.ext.announce >= 0 && vp.Remaining() > 0 {
		// A versioned holder appends its current version for an announcing
		// receiver; its absence just means the holder has no store.
		res.Version, _ = vp.Uvarint()
	}
	return nil
}

// treeReceiver runs the merkle descent and asks for the differing files with
// WANT. The capability mask this end's hello requested (treeCapSpec,
// treeCapCross) decides what may come back: the holder's TREE_ACK, sent only
// when it grants something, arrives before its first TREE reply. With none
// requested the exchange is byte-identical to the legacy descent.
type treeReceiver struct {
	s     *session
	res   *Result
	trees *treeState
	// altBases maps a wanted path to alternate local basis candidates for
	// its sync engine (cross-file near-match), best-first.
	altBases map[string][]string
}

func (d *treeReceiver) announce(manifest []ManifestEntry) ([]ManifestEntry, error) {
	s, caps := d.s, d.s.ext.treeCaps
	tc := d.trees.acquire(manifest, ManifestDigest(manifest))
	ini := merkle.NewInitiator(tc.Tree(merkle.DepthFor(len(manifest))))
	var granted byte
	for round := 1; !ini.Done(); round++ {
		s.st.begin(obs.PhaseTree, round)
		var ack, payload []byte
		err := s.send(wire.FrameTree, ini.Next(), stats.PhaseControl)
		if err == nil {
			err = s.flush()
		}
		if err == nil {
			// The holder grants extensions with a TREE_ACK before its first
			// TREE reply (same flush: no extra roundtrip).
			ack, payload, err = s.readGranted(s.read, wire.FrameTreeAck, wire.FrameTree, round == 1 && caps != 0)
		}
		if err == nil && ack != nil {
			var g uint64
			g, err = wire.NewParser(ack).Uvarint()
			granted = byte(g) & caps
			ini.Speculative = granted&treeCapSpec != 0
		}
		if err == nil {
			s.cost(stats.S2C, stats.PhaseControl, len(payload))
			s.answered()
			s.costs.TreeRounds++
			err = ini.Absorb(payload)
		}
		if err != nil {
			return nil, err
		}
	}
	diff := ini.Diff()
	s.st.begin(obs.PhaseHandshake, 0)

	// What the descent decided is settled here: unchanged and deleted paths,
	// and renames — wanted content that already exists locally under another
	// path is copied, not transferred: zero wire bytes.
	local := make(map[string]bool, len(diff.OnlyLocal)+len(diff.Changed)) // the differing paths here
	for _, e := range diff.Changed {
		local[e.Path] = true
	}
	for _, p := range diff.OnlyLocal {
		local[p] = true
		s.drop(d.res, p)
	}
	for _, e := range manifest {
		if !local[e.Path] {
			if err := s.keep(d.res, e.Path); err != nil {
				return nil, err
			}
		}
	}
	wants := slices.Concat(diff.Changed, diff.OnlyRemote)
	if granted&treeCapCross != 0 {
		// Cross-file matching: a wanted file whose length and fingerprint
		// some local file has is a rename. The rest of the holder-only files
		// get alternate-basis hints.
		byContent := make(map[ManifestEntry]string, len(manifest)) // keyed by length and sum
		for i := len(manifest) - 1; i >= 0; i-- {
			// Reverse iteration so the lowest path wins for duplicates.
			byContent[ManifestEntry{Len: manifest[i].Len, Sum: manifest[i].Sum}] = manifest[i].Path
		}
		left := wants[:0]
		for _, e := range wants {
			from, ok := byContent[ManifestEntry{Len: e.Len, Sum: e.Sum}]
			if !ok {
				left = append(left, e)
				continue
			}
			data, err := s.load(from)
			if err != nil {
				return nil, err
			}
			d.res.Files[e.Path] = data
			s.costs.FilesRenamed++
			s.costs.RenameBytesSaved += int64(len(data))
		}
		wants = left
		d.altBases = altBasisCandidates(diff.OnlyRemote, diff.OnlyLocal)
	}
	slices.SortFunc(wants, func(a, b merkle.Entry) int { return cmp.Compare(a.Path, b.Path) })
	wb := wire.NewBuffer(64)
	wb.Uvarint(uint64(len(wants)))
	for _, e := range wants {
		have := wantHave
		if _, alt := d.altBases[e.Path]; alt {
			have = wantAltBasis
		} else if !local[e.Path] {
			have = wantAbsent
		}
		wb.String(e.Path)
		wb.Byte(have)
	}
	return wants, s.send(wire.FrameWant, wb.Build(), stats.PhaseControl)
}

func (d *treeReceiver) read() (byte, []byte, error) { return d.s.read() }

func (d *treeReceiver) bases(path string) []string { return d.altBases[path] }

func (*treeReceiver) named() map[uint64]int { return nil }

// trailer: tree VERDICTS end with the new files.
func (*treeReceiver) trailer(*wire.Parser, []ManifestEntry, []int, *clientWork) error { return nil }

// treeState carries a client's merkle tree cache across sessions, so a
// repeat sync rebases the built tree from the manifest diff (O(changed ·
// depth) hashing) instead of rebuilding it.
type treeState struct {
	mu    sync.Mutex
	cache *merkle.TreeCache
}

// acquire returns the tree cache for the given manifest state, reusing or
// rebasing the previous sessions' trees when possible. A nil receiver (the
// push path, which has no cross-session home) builds a fresh cache.
func (ts *treeState) acquire(entries []merkle.Entry, fp [md4.Size]byte) *merkle.TreeCache {
	if ts == nil {
		return merkle.NewTreeCache(entries, fp)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	switch {
	case ts.cache != nil && ts.cache.Fingerprint() == fp:
		// Same collection state as last session: reuse as-is.
	case ts.cache != nil:
		ts.cache = ts.cache.Rebase(entries, fp)
	default:
		ts.cache = merkle.NewTreeCache(entries, fp)
	}
	return ts.cache
}

// maxAltBases bounds how many alternate local bases a client tries per
// wanted file; each candidate costs one engine's worth of memory and one
// first-round scan.
const maxAltBases = 3

// altBasisCandidates proposes alternate local bases for files that exist
// only on the server (a renamed one, copied instead, has no use for its
// own): orphaned local paths (paths the server no longer has — the likely
// sources of a rename) with matching basenames first, then the remaining
// orphans in path order. Deterministic by construction.
func altBasisCandidates(wanted []merkle.Entry, orphans []string) map[string][]string {
	if len(orphans) == 0 {
		return nil
	}
	sorted := slices.Clone(orphans)
	slices.Sort(sorted)
	byBase := make(map[string][]string, len(sorted))
	for _, p := range sorted {
		byBase[path.Base(p)] = append(byBase[path.Base(p)], p)
	}
	out := make(map[string][]string, len(wanted))
	for _, e := range wanted {
		same := byBase[path.Base(e.Path)]
		cands := slices.Clip(same[:min(len(same), maxAltBases)])
		for _, p := range sorted {
			if len(cands) == maxAltBases {
				break
			}
			if !slices.Contains(cands, p) {
				cands = append(cands, p)
			}
		}
		out[e.Path] = cands
	}
	return out
}
