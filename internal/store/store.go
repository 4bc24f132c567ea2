// Package store implements the server's versioned collection store: an
// append-only, checksummed history of collection snapshots kept next to the
// live tree. Each Snapshot captures the full manifest of a version plus the
// content needed to reconstruct it; consecutive versions share content via a
// blob index keyed by file checksum, and modified files are stored as
// block-level deltas against their previous version (internal/delta), so the
// history costs roughly the size of the change stream, not of the tree.
//
// Layout on disk (all files under the store directory):
//
//	journal       append-only record log; the commit point of every version
//	vNNNNNNNN.seg content blobs written by version NNNNNNNN
//	rNNNNNNNN.seg rescue blobs written by garbage collection
//
// Every journal record is framed as
//
//	[4B magic "msj1"][4B little-endian payload length][4B CRC-32 of payload][payload]
//
// and every blob carries its own CRC-32 in the journal's blob table. A
// version exists if and only if its record is fully present in the journal
// with a valid checksum: segments are written and fsynced before the record
// is appended, so a crash at any point leaves a journal whose valid prefix
// describes only fully committed versions. Replay stops at the first
// corrupt or truncated record and truncates the tail; damaged segment data
// is detected by CRC on read and surfaces as a journal-delta miss (full
// protocol fallback), never as an error on the sync path.
//
// Garbage collection drops oldest-first whole versions while the segment
// bytes exceed the configured budget, rescuing blobs still reachable from
// surviving versions into rescue segments. The latest version is never
// evicted.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/wire"
)

// Entry is one manifest row: a path with its length and whole-file checksum.
type Entry = filelist.Entry

// blobMode is the delta format of every blob the store writes, journal and
// GC rescue alike, and of every payload it computes: mode 0. A journal answer
// serves them inline to any announcing receiver, whatever its hello asked for,
// and a receiver that predates delta mode 2 decodes only mode 0.
const blobMode = delta.Mode0

// Change describes one path's evolution between a Delta's base and current
// versions, with the payload a client needs to apply it.
type Change struct {
	filelist.Change
	// Payload is blobMode.Encode(base content, current content) for
	// filelist.OpModify and blobMode.Compress(current content) for
	// filelist.OpAdd; nil for filelist.OpDelete.
	Payload []byte
}

// Delta is a precomputed journal delta between two stored versions.
type Delta struct {
	Base, Current uint64
	// BaseManifest is the base version's manifest, in manifest order. It is
	// the store's own slice: read-only.
	BaseManifest []Entry
	// Changes is filelist.Diff(BaseManifest, current manifest), in path
	// order, with payloads.
	Changes []Change
	// Miss is all a missed Delta holds, the reason: "version_unknown" (never
	// stored, or collected), "digest_mismatch" (the replica is not what the
	// base version recorded), "tree_ahead_of_snapshot" (the live tree is not
	// the latest version) or "unreadable" (stored content a payload needs
	// cannot be read back).
	Miss string
}

func miss(reason string) (*Delta, bool) { return &Delta{Miss: reason}, false }

// Options configures a Store.
type Options struct {
	// Budget caps total segment bytes; once exceeded, oldest versions are
	// garbage-collected (the latest version is never evicted). 0 = unlimited.
	Budget int64
}

// Stats is a point-in-time summary of the store, for gauges.
type Stats struct {
	// Versions is the number of committed versions currently retained.
	Versions int
	// Latest is the newest version number (0 when empty).
	Latest uint64
	// SegmentBytes is the total size of all live segment files.
	SegmentBytes int64
	// JournalBytes is the size of the journal's valid prefix.
	JournalBytes int64
}

// ErrUnknownContent is returned by Content for checksums the store cannot
// resolve (never stored, garbage-collected, or damaged on disk).
var ErrUnknownContent = errors.New("store: unknown content")

const (
	recVersion = 1
	recGC      = 2

	blobFull  = 0
	blobDelta = 1

	// maxChain bounds delta-chain depth: a version whose base is this deep is
	// stored as a full blob.
	maxChain = 8
)

var journalMagic = [4]byte{'m', 's', 'j', '1'}

type blobRef struct {
	seg   string
	off   int64
	n     int64
	crc   uint32
	kind  byte
	base  [md4.Size]byte // delta base checksum (blobDelta only)
	chain int            // delta-chain depth; 0 for full blobs
}

type version struct {
	n      uint64
	digest [md4.Size]byte
	// manifest is the version's file list. A version replay found has none
	// until its first use (manifestOf): replay only checks the encoding, and
	// keeps where the journal holds it, [moff, moff+mlen), and its CRC-32.
	manifest []Entry
	moff     int64
	mlen     int64 // 0 once manifest is set
	mcrc     uint32
}

// Store is a versioned collection store. All methods are safe for concurrent
// use; operations serialize on one mutex (reads hit the local disk only).
type Store struct {
	dir string
	opt Options

	mu        sync.Mutex
	jf        *os.File
	jsize     int64
	versions  []*version // ascending by n
	blobs     map[[md4.Size]byte]blobRef
	segs      map[string]int64 // live segment file -> size
	lastSeq   uint64           // highest version number ever seen (even dropped)
	gcSeq     uint64           // rescue segment sequence
	replayEnd int64            // journal offset just past the payload replay is applying
}

// Open opens (creating if needed) the store in dir and replays its journal.
// Corrupt or truncated journal tails are discarded; versions whose own
// segment is missing or short are dropped from the tail so that the latest
// retained version is always reconstructible.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:   dir,
		opt:   opt,
		jf:    jf,
		blobs: make(map[[md4.Size]byte]blobRef),
		segs:  make(map[string]int64),
	}
	valid, err := s.replay()
	if err != nil {
		jf.Close()
		return nil, err
	}
	// Discard the corrupt/partial tail so future appends extend the valid
	// prefix (appending after garbage would hide the new records).
	if err := jf.Truncate(valid); err != nil {
		jf.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := jf.Seek(valid, io.SeekStart); err != nil {
		jf.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.jsize = valid
	s.validateSegments()
	s.dropUnservableTail()
	s.removeStraySegments()
	return s, nil
}

// Close releases the journal handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jf.Close()
}

// replay reads the journal from the start, applying every structurally valid
// record, and returns the byte offset of the valid prefix. A record's declared
// length is believed only as far as the file holds it, and every count inside
// a record only as far as the record's bytes do. The records are read through
// one buffer, reused.
func (s *Store) replay() (int64, error) {
	fi, err := s.jf.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	var off int64
	var buf []byte
	for {
		// A short or torn record, a bad magic or CRC, or an I/O error ends
		// the valid prefix here; EOF at a record boundary is the normal end.
		payload, ok := s.readRecord(off, fi.Size(), buf)
		if !ok {
			return off, nil
		}
		buf = payload
		s.replayEnd = off + 12 + int64(len(payload))
		if !s.applyRecord(payload) {
			return off, nil
		}
		off += 12 + int64(len(payload))
	}
}

// readRecord reads the journal record at off into buf, grown as needed, and
// returns its payload once its magic, length and CRC check out. size is the
// journal's length: a declared length past it is not believed.
func (s *Store) readRecord(off, size int64, buf []byte) ([]byte, bool) {
	var hdr [12]byte
	if _, err := s.jf.ReadAt(hdr[:], off); err != nil || [4]byte(hdr[:4]) != journalMagic {
		return nil, false
	}
	n := int64(le32(hdr[4:8]))
	if n > size-off-12 {
		return nil, false
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := s.jf.ReadAt(buf, off+12); err != nil || crc32.ChecksumIEEE(buf) != le32(hdr[8:12]) {
		return nil, false
	}
	return buf, true
}

// applyRecord applies one checksummed journal payload; false means the
// record is semantically unparseable and replay must stop before it.
func (s *Store) applyRecord(payload []byte) bool {
	p := wire.NewParser(payload)
	typ, err := p.Byte()
	if err != nil {
		return false
	}
	switch typ {
	case recVersion:
		return s.applyVersion(p)
	case recGC:
		return s.applyGC(p)
	default:
		// Unknown record type: written by a future format; stop.
		return false
	}
}

func (s *Store) applyVersion(p *wire.Parser) bool {
	n, err := p.Uvarint()
	if err != nil || n <= s.lastSeq {
		return false
	}
	v := &version{n: n}
	if !readSum(p, &v.digest) {
		return false
	}
	at := *p
	if filelist.Check(p) != nil {
		return false
	}
	v.moff = s.replayEnd - int64(at.Remaining())
	span, _ := at.Raw(at.Remaining() - p.Remaining())
	v.mlen, v.mcrc = int64(len(span)), crc32.ChecksumIEEE(span)
	seg := segName(n)
	refs, segSize, ok := readBlobTable(p, seg)
	if !ok {
		return false
	}
	for sum, ref := range refs {
		s.blobs[sum] = ref
	}
	if segSize > 0 {
		s.segs[seg] = segSize
	}
	s.versions = append(s.versions, v)
	s.lastSeq = n
	return true
}

// manifestOf returns v's manifest, parsed on first use from the span of the
// journal replay found it in, once the span's CRC-32 checks out again.
func (s *Store) manifestOf(v *version) ([]Entry, error) {
	if v.mlen == 0 {
		return v.manifest, nil
	}
	raw := make([]byte, v.mlen)
	if _, err := s.jf.ReadAt(raw, v.moff); err != nil {
		return nil, fmt.Errorf("store: version %d manifest: %w", v.n, err)
	}
	if crc32.ChecksumIEEE(raw) != v.mcrc {
		return nil, fmt.Errorf("store: version %d manifest: checksum mismatch", v.n)
	}
	m, err := filelist.Parse(wire.NewParser(raw))
	if err != nil {
		return nil, fmt.Errorf("store: version %d manifest: %w", v.n, err)
	}
	v.manifest, v.mlen = m, 0
	return m, nil
}

func (s *Store) applyGC(p *wire.Parser) bool {
	// Every version number and segment name takes at least a byte.
	nd, err := p.Uvarint()
	if err != nil || nd > uint64(p.Remaining()) {
		return false
	}
	dropped := make(map[uint64]bool, nd)
	for i := uint64(0); i < nd; i++ {
		v, err := p.Uvarint()
		if err != nil {
			return false
		}
		dropped[v] = true
	}
	ns, err := p.Uvarint()
	if err != nil || ns > uint64(p.Remaining()) {
		return false
	}
	deleted := make(map[string]bool, ns)
	for i := uint64(0); i < ns; i++ {
		name, err := p.String()
		if err != nil {
			return false
		}
		deleted[name] = true
	}
	gcSeq, err := p.Uvarint()
	if err != nil {
		return false
	}
	rescue, err := p.String()
	if err != nil {
		return false
	}
	var refs map[[md4.Size]byte]blobRef
	var segSize int64
	if rescue != "" {
		var ok bool
		if refs, segSize, ok = readBlobTable(p, rescue); !ok {
			return false
		}
	}
	// Apply: drop versions, drop refs into deleted segments, add rescues.
	kept := s.versions[:0]
	for _, v := range s.versions {
		if !dropped[v.n] {
			kept = append(kept, v)
		}
	}
	s.versions = kept
	for sum, ref := range s.blobs {
		if deleted[ref.seg] {
			delete(s.blobs, sum)
		}
	}
	for name := range deleted {
		delete(s.segs, name)
	}
	for sum, ref := range refs {
		s.blobs[sum] = ref
	}
	if rescue != "" && segSize > 0 {
		s.segs[rescue] = segSize
	}
	if gcSeq > s.gcSeq {
		s.gcSeq = gcSeq
	}
	return true
}

// validateSegments drops blob refs whose segment file is missing or shorter
// than the ref requires; such content lazily reads as unknown.
func (s *Store) validateSegments() {
	need := make(map[string]int64)
	for _, ref := range s.blobs {
		if end := ref.off + ref.n; end > need[ref.seg] {
			need[ref.seg] = end
		}
	}
	bad := make(map[string]bool)
	for seg, n := range need {
		fi, err := os.Stat(filepath.Join(s.dir, seg))
		if err != nil || fi.Size() < n {
			bad[seg] = true
		} else {
			s.segs[seg] = fi.Size()
		}
	}
	for seg := range s.segs {
		if _, ok := need[seg]; !ok && !bad[seg] {
			// Segment with no remaining refs (all superseded); keep its
			// recorded size if the file exists, else forget it.
			fi, err := os.Stat(filepath.Join(s.dir, seg))
			if err != nil {
				delete(s.segs, seg)
			} else {
				s.segs[seg] = fi.Size()
			}
		}
	}
	for sum, ref := range s.blobs {
		if bad[ref.seg] {
			delete(s.blobs, sum)
		}
	}
	for seg := range bad {
		delete(s.segs, seg)
	}
}

// dropUnservableTail pops trailing versions whose manifests are no longer
// fully resolvable, so the latest retained version can always serve journal
// deltas and the Snapshot digest short-circuit never pins a damaged version.
func (s *Store) dropUnservableTail() {
	for len(s.versions) > 0 {
		m, err := s.manifestOf(s.versions[len(s.versions)-1])
		if err == nil && s.resolvable(m) {
			return
		}
		s.versions = s.versions[:len(s.versions)-1]
	}
}

// resolvable reports whether every manifest entry's delta chain is present
// in the blob index (no disk reads).
func (s *Store) resolvable(manifest []Entry) bool {
	for _, e := range manifest {
		sum := e.Sum
		for {
			ref, ok := s.blobs[sum]
			if !ok {
				return false
			}
			if ref.kind == blobFull {
				break
			}
			sum = ref.base
		}
	}
	return true
}

// removeStraySegments deletes *.seg files not referenced by the live index —
// leftovers of a crash between segment write and journal commit, or of a
// crash between a GC record and its file deletions — and the temporary file
// of a segment write a crash cut short.
func (s *Store) removeStraySegments() {
	temps, _ := filepath.Glob(filepath.Join(s.dir, dirio.TempPrefix+"*"))
	for _, path := range temps {
		os.Remove(path)
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.seg"))
	if err != nil {
		return
	}
	for _, path := range matches {
		if _, ok := s.segs[filepath.Base(path)]; !ok {
			os.Remove(path)
		}
	}
}

// LatestVersion reports the newest committed version number, 0 when empty.
func (s *Store) LatestVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.latest(); v != nil {
		return v.n
	}
	return 0
}

// Manifest returns the manifest of version n, or nil if not retained.
func (s *Store) Manifest(n uint64) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.find(n); v != nil {
		if m, err := s.manifestOf(v); err == nil {
			return slices.Clone(m)
		}
	}
	return nil
}

// Stats reports a point-in-time summary for gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Versions: len(s.versions), JournalBytes: s.jsize}
	if v := s.latest(); v != nil {
		st.Latest = v.n
	}
	for _, n := range s.segs {
		st.SegmentBytes += n
	}
	return st
}

func (s *Store) latest() *version {
	if len(s.versions) == 0 {
		return nil
	}
	return s.versions[len(s.versions)-1]
}

func (s *Store) find(n uint64) *version {
	for _, v := range s.versions {
		if v.n == n {
			return v
		}
	}
	return nil
}

// Snapshot commits the given manifest as a new version, loading changed
// content through load. digest is an opaque fingerprint of the manifest
// (the caller's wire-encoded manifest checksum): when it matches the latest
// version's digest the call is an idempotent no-op returning that version.
// The manifest must be strictly sorted by path (collection manifests are) and
// content loaded for a path must match its manifest entry, or Snapshot fails
// without writing anything. Returns the version number and whether a new
// version was cut.
func (s *Store) Snapshot(manifest []Entry, digest [md4.Size]byte, load func(string) ([]byte, error)) (uint64, bool, error) {
	for i := 1; i < len(manifest); i++ {
		if manifest[i].Path <= manifest[i-1].Path {
			return 0, false, fmt.Errorf("store: snapshot manifest not sorted by path at entry %d", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.latest(); v != nil && v.digest == digest {
		return v.n, false, nil
	}
	n := s.lastSeq + 1
	var prev []Entry
	if v := s.latest(); v != nil {
		var err error
		if prev, err = s.manifestOf(v); err != nil {
			return 0, false, err
		}
	}
	changes := filelist.Diff(prev, manifest)
	memo := make(map[[md4.Size]byte][]byte)

	seg := segName(n)
	var segBuf []byte
	refs := make(map[[md4.Size]byte]blobRef)
	ordered := make([][md4.Size]byte, 0, len(changes))
	for _, ch := range changes {
		if ch.Op == filelist.OpDelete {
			continue
		}
		if _, ok := refs[ch.New.Sum]; ok {
			continue
		}
		if ref, ok := s.blobs[ch.New.Sum]; ok && s.chainOK(ref) {
			continue // content already stored (dedup: renames, copies)
		}
		data, err := load(ch.New.Path)
		if err != nil {
			return 0, false, fmt.Errorf("store: snapshot load %q: %w", ch.New.Path, err)
		}
		if len(data) != ch.New.Len || md4.Sum(data) != ch.New.Sum {
			return 0, false, fmt.Errorf("store: %q changed during snapshot", ch.New.Path)
		}
		blob := blobMode.Compress(data)
		ref := blobRef{seg: seg, kind: blobFull}
		if ch.Op == filelist.OpModify {
			// Prefer a delta against the previous version's content when it
			// is resolvable, the chain stays bounded, and it actually wins.
			if baseRef, ok := s.blobs[ch.Old.Sum]; ok && baseRef.chain < maxChain && s.chainOK(baseRef) {
				if base, err := s.content(ch.Old.Sum, memo); err == nil {
					if d := blobMode.Encode(base, data); len(d) < len(blob) {
						blob = d
						ref.kind = blobDelta
						ref.base = ch.Old.Sum
						ref.chain = baseRef.chain + 1
					}
				}
			}
		}
		ref.off = int64(len(segBuf))
		ref.n = int64(len(blob))
		ref.crc = crc32.ChecksumIEEE(blob)
		segBuf = append(segBuf, blob...)
		refs[ch.New.Sum] = ref
		ordered = append(ordered, ch.New.Sum)
		memo[ch.New.Sum] = data
	}

	if len(segBuf) > 0 {
		if err := s.writeFileSync(seg, segBuf); err != nil {
			return 0, false, err
		}
	}

	b := wire.NewBuffer(64 + len(manifest)*32)
	b.Byte(recVersion)
	b.Uvarint(n)
	b.Raw(digest[:])
	filelist.Append(b, manifest)
	writeBlobTable(b, refs, ordered)
	if err := s.appendRecord(b.Build()); err != nil {
		// The segment may remain as a stray file; Open cleans it up.
		return 0, false, err
	}

	v := &version{n: n, digest: digest, manifest: append([]Entry(nil), manifest...)}
	s.versions = append(s.versions, v)
	for sum, ref := range refs {
		s.blobs[sum] = ref
	}
	if len(segBuf) > 0 {
		s.segs[seg] = int64(len(segBuf))
	}
	s.lastSeq = n
	s.gc()
	return n, true, nil
}

// chainOK reports whether ref's full delta chain is present in the index.
func (s *Store) chainOK(ref blobRef) bool {
	for ref.kind == blobDelta {
		next, ok := s.blobs[ref.base]
		if !ok {
			return false
		}
		ref = next
	}
	return true
}

// Content reconstructs the stored content with the given checksum.
func (s *Store) Content(sum [md4.Size]byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.content(sum, make(map[[md4.Size]byte][]byte))
}

func (s *Store) content(sum [md4.Size]byte, memo map[[md4.Size]byte][]byte) ([]byte, error) {
	if data, ok := memo[sum]; ok {
		return data, nil
	}
	ref, ok := s.blobs[sum]
	if !ok {
		return nil, ErrUnknownContent
	}
	raw, err := s.readBlob(ref)
	if err != nil {
		return nil, err
	}
	var data []byte
	if ref.kind == blobFull {
		data, err = delta.Decompress(raw)
	} else {
		var base []byte
		if base, err = s.content(ref.base, memo); err == nil {
			data, err = delta.Decode(base, raw)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownContent, err)
	}
	if md4.Sum(data) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrUnknownContent)
	}
	memo[sum] = data
	return data, nil
}

func (s *Store) readBlob(ref blobRef) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.dir, ref.seg))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownContent, err)
	}
	defer f.Close()
	raw := make([]byte, ref.n)
	if _, err := f.ReadAt(raw, ref.off); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownContent, err)
	}
	if crc32.ChecksumIEEE(raw) != ref.crc {
		return nil, fmt.Errorf("%w: blob checksum mismatch", ErrUnknownContent)
	}
	return raw, nil
}

// Delta computes the precomputed journal delta from version base to the
// latest version. Both digests must match what the store recorded — the
// caller passes the fingerprint of the client's announced manifest and of
// the server's live manifest, so a hit guarantees the delta transforms
// exactly the client's tree into exactly the server's. Any mismatch,
// unknown or GC'd version, or unreadable content reports a miss (never an
// error) whose Delta holds only the reason: the session falls back to the
// full protocol.
func (s *Store) Delta(base uint64, baseDigest, currentDigest [md4.Size]byte) (*Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	latest := s.latest()
	if latest == nil || latest.digest != currentDigest {
		return miss("tree_ahead_of_snapshot")
	}
	bv := s.find(base)
	if bv == nil {
		return miss("version_unknown")
	}
	if bv.digest != baseDigest {
		return miss("digest_mismatch")
	}
	baseManifest, err1 := s.manifestOf(bv)
	current, err2 := s.manifestOf(latest)
	if err1 != nil || err2 != nil {
		return miss("unreadable")
	}
	d := &Delta{Base: base, Current: latest.n, BaseManifest: baseManifest}
	memo := make(map[[md4.Size]byte][]byte)
	for _, ch := range filelist.Diff(baseManifest, current) {
		out := Change{Change: ch}
		var err error
		switch ch.Op {
		case filelist.OpAdd:
			out.Payload, err = s.fullPayload(ch.New.Sum, memo)
		case filelist.OpModify:
			out.Payload, err = s.modifyPayload(ch.Old.Sum, ch.New.Sum, memo)
		}
		if err != nil {
			return miss("unreadable")
		}
		d.Changes = append(d.Changes, out)
	}
	return d, true
}

// fullPayload returns blobMode.Compress(content): the stored blob verbatim when
// it is already a full blob, else recompressed from reconstructed content.
func (s *Store) fullPayload(sum [md4.Size]byte, memo map[[md4.Size]byte][]byte) ([]byte, error) {
	if ref, ok := s.blobs[sum]; ok && ref.kind == blobFull {
		return s.readBlob(ref)
	}
	data, err := s.content(sum, memo)
	if err != nil {
		return nil, err
	}
	return blobMode.Compress(data), nil
}

// modifyPayload returns blobMode.Encode(old content, new content), reusing the
// stored single-step delta blob when it was computed against exactly oldSum.
func (s *Store) modifyPayload(oldSum, newSum [md4.Size]byte, memo map[[md4.Size]byte][]byte) ([]byte, error) {
	if ref, ok := s.blobs[newSum]; ok && ref.kind == blobDelta && ref.base == oldSum {
		return s.readBlob(ref)
	}
	old, err := s.content(oldSum, memo)
	if err != nil {
		return nil, err
	}
	data, err := s.content(newSum, memo)
	if err != nil {
		return nil, err
	}
	return blobMode.Encode(old, data), nil
}

// gc drops oldest versions while segment bytes exceed the budget, never
// evicting the latest version. Caller holds s.mu.
func (s *Store) gc() {
	if s.opt.Budget <= 0 {
		return
	}
	for len(s.versions) > 1 && s.segTotal() > s.opt.Budget {
		if !s.dropOldest() {
			return
		}
	}
}

func (s *Store) segTotal() int64 {
	var t int64
	for _, n := range s.segs {
		t += n
	}
	return t
}

// dropOldest evicts the oldest version: blobs still reachable from surviving
// manifests are rescued as full blobs into a rescue segment, then every
// segment no surviving chain touches is deleted. Returns false when the
// eviction could not be committed (journal append failure).
func (s *Store) dropOldest() bool {
	victim := s.versions[0]
	survivors := s.versions[1:]
	reachable := make(map[[md4.Size]byte]bool)
	for _, v := range survivors {
		m, err := s.manifestOf(v)
		if err != nil {
			return false
		}
		for _, e := range m {
			s.markChain(e.Sum, reachable)
		}
	}
	needSeg := make(map[string]bool)
	for sum := range reachable {
		if ref, ok := s.blobs[sum]; ok {
			needSeg[ref.seg] = true
		}
	}
	// The victim's own segment must go to reclaim bytes; rescue what
	// survivors still need from it. Every other unneeded segment goes too.
	vseg := segName(victim.n)
	var rescueSums [][md4.Size]byte
	if needSeg[vseg] {
		for sum := range reachable {
			if ref, ok := s.blobs[sum]; ok && ref.seg == vseg {
				rescueSums = append(rescueSums, sum)
			}
		}
		sort.Slice(rescueSums, func(i, j int) bool {
			return string(rescueSums[i][:]) < string(rescueSums[j][:])
		})
	}
	var doomed []string
	for seg := range s.segs {
		if !needSeg[seg] || seg == vseg {
			doomed = append(doomed, seg)
		}
	}
	sort.Strings(doomed)

	rescueName := ""
	var rescueBuf []byte
	rescueRefs := make(map[[md4.Size]byte]blobRef)
	var rescueOrder [][md4.Size]byte
	if len(rescueSums) > 0 {
		s.gcSeq++
		rescueName = fmt.Sprintf("r%08d.seg", s.gcSeq)
		memo := make(map[[md4.Size]byte][]byte)
		for _, sum := range rescueSums {
			data, err := s.content(sum, memo)
			if err != nil {
				continue // damaged chain: content is lost either way
			}
			blob := blobMode.Compress(data)
			rescueRefs[sum] = blobRef{
				seg:  rescueName,
				off:  int64(len(rescueBuf)),
				n:    int64(len(blob)),
				crc:  crc32.ChecksumIEEE(blob),
				kind: blobFull,
			}
			rescueBuf = append(rescueBuf, blob...)
			rescueOrder = append(rescueOrder, sum)
		}
		if len(rescueBuf) > 0 {
			if err := s.writeFileSync(rescueName, rescueBuf); err != nil {
				return false
			}
		} else {
			rescueName = ""
		}
	}

	b := wire.NewBuffer(256)
	b.Byte(recGC)
	b.Uvarint(1)
	b.Uvarint(victim.n)
	b.Uvarint(uint64(len(doomed)))
	for _, seg := range doomed {
		b.String(seg)
	}
	b.Uvarint(s.gcSeq)
	b.String(rescueName)
	if rescueName != "" {
		writeBlobTable(b, rescueRefs, rescueOrder)
	}
	if err := s.appendRecord(b.Build()); err != nil {
		return false
	}

	// Committed: now mutate memory and delete files.
	s.versions = s.versions[1:]
	doomedSet := make(map[string]bool, len(doomed))
	for _, seg := range doomed {
		doomedSet[seg] = true
	}
	for sum, ref := range s.blobs {
		if doomedSet[ref.seg] {
			delete(s.blobs, sum)
		}
	}
	for sum, ref := range rescueRefs {
		s.blobs[sum] = ref
	}
	for _, seg := range doomed {
		delete(s.segs, seg)
		os.Remove(filepath.Join(s.dir, seg))
	}
	if rescueName != "" {
		s.segs[rescueName] = int64(len(rescueBuf))
	}
	return true
}

// markChain adds sum and its whole delta chain to the reachable set.
func (s *Store) markChain(sum [md4.Size]byte, reachable map[[md4.Size]byte]bool) {
	for !reachable[sum] {
		reachable[sum] = true
		ref, ok := s.blobs[sum]
		if !ok || ref.kind == blobFull {
			return
		}
		sum = ref.base
	}
}

// writeFileSync writes name under the store dir durably (dirio.ReplaceFile
// and a directory fsync) before the journal commits a reference to it.
func (s *Store) writeFileSync(name string, data []byte) error {
	if err := cmp.Or(dirio.ReplaceFile(filepath.Join(s.dir, name), data), dirio.SyncDir(s.dir)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// appendRecord frames and appends one journal record, fsyncing the journal.
// The append is the commit point of every store mutation.
func (s *Store) appendRecord(payload []byte) error {
	hdr := make([]byte, 12)
	copy(hdr, journalMagic[:])
	putLE32(hdr[4:8], uint32(len(payload)))
	putLE32(hdr[8:12], crc32.ChecksumIEEE(payload))
	if _, err := s.jf.Write(hdr); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if _, err := s.jf.Write(payload); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	s.jsize += int64(12 + len(payload))
	return nil
}

// blob table encoding (shared by recVersion and recGC)

func writeBlobTable(b *wire.Buffer, refs map[[md4.Size]byte]blobRef, order [][md4.Size]byte) {
	b.Uvarint(uint64(len(order)))
	for _, sum := range order {
		ref := refs[sum]
		b.Raw(sum[:])
		b.Uvarint(uint64(ref.off))
		b.Uvarint(uint64(ref.n))
		b.Uvarint(uint64(ref.crc))
		b.Byte(ref.kind)
		if ref.kind == blobDelta {
			b.Raw(ref.base[:])
			b.Uvarint(uint64(ref.chain))
		}
	}
}

func readBlobTable(p *wire.Parser, seg string) (map[[md4.Size]byte]blobRef, int64, bool) {
	// A row is at least 20 bytes: the sum, three one-byte varints and the kind.
	nb, err := p.Uvarint()
	if err != nil || nb > uint64(p.Remaining()/20) {
		return nil, 0, false
	}
	refs := make(map[[md4.Size]byte]blobRef, nb)
	var size int64
	for i := uint64(0); i < nb; i++ {
		var sum [md4.Size]byte
		if !readSum(p, &sum) {
			return nil, 0, false
		}
		off, err1 := p.Uvarint()
		n, err2 := p.Uvarint()
		crc, err3 := p.Uvarint()
		kind, err4 := p.Byte()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, 0, false
		}
		ref := blobRef{seg: seg, off: int64(off), n: int64(n), crc: uint32(crc), kind: kind}
		if kind == blobDelta {
			if !readSum(p, &ref.base) {
				return nil, 0, false
			}
			chain, err := p.Uvarint()
			if err != nil {
				return nil, 0, false
			}
			ref.chain = int(chain)
		} else if kind != blobFull {
			return nil, 0, false
		}
		if end := ref.off + ref.n; end > size {
			size = end
		}
		refs[sum] = ref
	}
	return refs, size, true
}

func readSum(p *wire.Parser, out *[md4.Size]byte) bool {
	raw, err := p.Raw(md4.Size)
	if err != nil {
		return false
	}
	copy(out[:], raw)
	return true
}

func segName(n uint64) string { return fmt.Sprintf("v%08d.seg", n) }

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
