// Package collection implements the collection-level synchronization
// protocol: manifest exchange with per-file fingerprints, every changed
// file's map-construction rounds batched into shared roundtrips (the paper's
// amortization argument), the delta phase, and full-transfer fallbacks for
// new files and whole-file-check failures.
package collection

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/wire"
)

// ManifestEntry fingerprints one client file: the paper's "very strong
// 16-byte hash value for each file" used both to detect unchanged files and
// to backstop per-file failures. It is the one file-list entry, so a tree
// session reads the manifest as it stands and a store keeps it as it is.
type ManifestEntry = filelist.Entry

// BuildManifest fingerprints a path-keyed file set, sorted by path.
func BuildManifest(files map[string][]byte) []ManifestEntry {
	out := make([]ManifestEntry, 0, len(files))
	for path, data := range files {
		out = append(out, ManifestEntry{Path: path, Len: len(data), Sum: md4.Sum(data)})
	}
	slices.SortFunc(out, func(a, b ManifestEntry) int { return strings.Compare(a.Path, b.Path) })
	return out
}

// encodeManifest serializes a manifest as a MANIFEST payload: the file list.
func encodeManifest(m []ManifestEntry) []byte {
	b := wire.NewBuffer(len(m) * 32)
	filelist.Append(b, m)
	return b.Build()
}

// decodeManifest parses a MANIFEST payload. A list filelist.Parse refuses —
// out of path order, a path twice, more entries than bytes — is a protocol
// error.
func decodeManifest(p []byte) ([]ManifestEntry, error) {
	m, err := filelist.Parse(wire.NewParser(p))
	if err != nil {
		return nil, fmt.Errorf("%w: malformed MANIFEST: %w", core.ErrProtocol, err)
	}
	return m, nil
}

// What a MANIFEST_PACKED payload may decode to, in bytes per payload byte: its
// path column and the paths that column expands to once shared prefixes are
// copied out (0.37–0.66 and 0.37–1.05 on the benchmark's four corpora). Both
// are checked before allocating for them; a receiver whose manifest would
// break either sends MANIFEST instead.
const packedColumnCap, packedPathCap = 4, 16

// errPacked marks a MANIFEST_PACKED or MANIFEST_SHORT payload that no receiver
// builds.
var errPacked = fmt.Errorf("%w: malformed MANIFEST_PACKED", core.ErrProtocol)

// shortSum is how many leading bytes of each file's MD4 a MANIFEST_SHORT
// carries, and sumGroup how many files the holder judged unchanged share one
// MD4 over their full sums in the VERDICTS trailer that answers it. A changed
// file passes the 24-bit prefix with probability 2⁻²⁴, and then its group's
// 128-bit MD4 still catches it.
const shortSum, sumGroup = 3, 64

// packManifest encodes m as a MANIFEST_PACKED payload (width md4.Size) or a
// MANIFEST_SHORT one (width shortSum): n, then one column of n × (shared,
// suffix, len) compressed in delta mode 0 — shared being how many leading
// bytes the path has in common with the previous one — then the first width
// bytes of each of the n sums, raw. Random sums would only dilute the column,
// so they stay out of it. fits is false when the payload breaks one of
// unpackManifest's caps.
func packManifest(m []ManifestEntry, width int) (payload []byte, fits bool) {
	col := wire.NewBuffer(len(m) * 12)
	prev, paths := "", 0
	for _, e := range m {
		k := 0
		for k < len(prev) && k < len(e.Path) && prev[k] == e.Path[k] {
			k++
		}
		col.Uvarint(uint64(k))
		col.String(e.Path[k:])
		col.Uvarint(uint64(e.Len))
		prev = e.Path
		paths += len(e.Path)
	}
	// Mode 0: the receiver sends the column before it knows the holder, and
	// a holder that predates delta mode 2 reads no other.
	comp := delta.Mode0.Compress(col.Build())
	b := wire.NewBuffer(len(comp) + len(m)*width + 16)
	b.Uvarint(uint64(len(m)))
	b.Bytes(comp)
	for _, e := range m {
		b.Raw(e.Sum[:width])
	}
	payload = b.Build()
	return payload, col.Len() <= packedColumnCap*len(payload) && paths <= packedPathCap*len(payload)
}

// unpackManifest parses a payload packManifest built at the given width into
// the entries a MANIFEST of the same list decodes to — each sum's first width
// bytes, the rest zero —: strictly ascending paths, like every file list.
// Every count and length it is given is checked against the payload, and every
// path against the one before it, before anything is allocated for it.
func unpackManifest(p []byte, width int) ([]ManifestEntry, error) {
	pr := wire.NewParser(p)
	n, err1 := pr.Uvarint()
	comp, err2 := pr.Bytes()
	declared, err3 := wire.NewParser(comp).Uvarint()
	var col []byte
	err := cmp.Or(err1, err2, err3)
	switch {
	case err != nil:
	case n > uint64(len(p)/width) || pr.Remaining() != int(n)*width:
		err = fmt.Errorf("%d bytes of sums for %d entries", pr.Remaining(), n)
	case declared > packedColumnCap*uint64(len(p)):
		err = fmt.Errorf("a %d-byte column declares %d bytes", len(comp), declared)
	default:
		col, err = delta.Decode(nil, comp)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errPacked, err)
	}
	sums := p[len(p)-int(n)*width:]
	cp := wire.NewParser(col)
	out := make([]ManifestEntry, n)
	prev, paths := "", 0
	for i := range out {
		shared, err1 := cp.Uvarint()
		suffix, err2 := cp.Bytes()
		l, err3 := cp.Uvarint()
		if err := cmp.Or(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %w", errPacked, i, err)
		}
		if shared > uint64(len(prev)) {
			return nil, fmt.Errorf("%w: entry %d shares %d bytes of a %d-byte path", errPacked, i, shared, len(prev))
		}
		if i > 0 && string(suffix) <= prev[shared:] { // the shared prefixes are equal
			return nil, fmt.Errorf("%w: entry %d is not after entry %d", errPacked, i, i-1)
		}
		if paths += int(shared) + len(suffix); paths > packedPathCap*len(p) {
			return nil, fmt.Errorf("%w: paths past %d bytes", errPacked, packedPathCap*len(p))
		}
		prev = prev[:shared] + string(suffix)
		out[i] = ManifestEntry{Path: prev, Len: int(l)}
		copy(out[i].Sum[:], sums[i*width:(i+1)*width])
	}
	if cp.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after %d entries", errPacked, cp.Remaining(), n)
	}
	return out, nil
}

// widen gives each entry of a MANIFEST_SHORT list the holder's full sum where
// the holder has the same path at the same length with the same leading
// shortSum bytes, so that filelist.Diff against the holder's list names exactly
// the files whose length or sum prefix differ. kept indexes the others, the
// files the verdicts will judge unchanged.
func widen(short, full []ManifestEntry) (kept []int) {
	j := 0
	for i := range short {
		e := &short[i]
		for j < len(full) && full[j].Path < e.Path {
			j++
		}
		if j < len(full) && full[j].Path == e.Path && full[j].Len == e.Len && [shortSum]byte(full[j].Sum[:]) == [shortSum]byte(e.Sum[:]) {
			e.Sum = full[j].Sum
			kept = append(kept, i)
		}
	}
	return kept
}

// groupDigests is the VERDICTS trailer that answers a MANIFEST_SHORT: list is
// the flat list the verdicts walk (the receiver's own; on the holder, the
// received one widened), kept the indexes of the files judged unchanged, in
// list order. Every sumGroup of them in a row, the last group possibly shorter,
// make one group, whose MD4 over its members' full sums is the same 16 bytes
// on both ends exactly when every member's sum agrees.
func groupDigests(list []ManifestEntry, kept []int) []byte {
	out := make([]byte, 0, (len(kept)+sumGroup-1)/sumGroup*md4.Size)
	var buf [sumGroup * md4.Size]byte
	for k := 0; k < len(kept); k += sumGroup {
		n := 0
		for _, i := range kept[k:min(k+sumGroup, len(kept))] {
			n += copy(buf[n:], list[i].Sum[:])
		}
		d := md4.Sum(buf[:n])
		out = append(out, d[:]...)
	}
	return out
}

// Session roles carried in the HELLO frame.
const (
	// rolePull: the initiator holds the outdated copy and wants updates.
	rolePull byte = 0
	// rolePush: the initiator holds the newer data and updates the remote
	// replica (the paper §7 asymmetric scenario).
	rolePush byte = 1
)

// Manifest exchange modes carried in the HELLO frame.
const (
	// modeManifest sends the full flat fingerprint manifest (paper §6.1).
	modeManifest byte = 0
	// modeTree locates changed files by merkle reconciliation first
	// (sublinear in collection size when few files change).
	modeTree byte = 1
)

// Verdicts for each client-manifest entry plus trailing new files.
const (
	verdictUnchanged byte = iota
	verdictSync           // changed: run the map+delta protocol
	verdictDelete         // no longer on the server
	verdictFull           // changed but too small to bother mapping; sent full
	verdictJournal        // changed: precomputed journal delta attached inline
)

// Hello extensions: an optional trailer after the mode byte, encoded as
// uvarint count followed by (uvarint id, length-prefixed payload) pairs.
// Servers ignore unknown extensions and pre-extension servers ignore the
// trailer entirely, so the hello stays backward- and forward-compatible.
const (
	// helloExtVersion announces the client's stored collection version as a
	// uvarint (0 = none known). A versioned server answers with journal
	// verdicts when it can serve the announced version's delta, and appends
	// its current version to the verdict frame either way. A client
	// announcing a version above 0 sends MANIFEST_REF in place of MANIFEST.
	helloExtVersion = 1
	// Extension 2 requested stream multiplexing. It is retired: no client
	// sends it, and a server ignores it like any unknown extension, so an
	// older client that asks runs the lockstep session.
	// helloExtTree advertises tree-mode capabilities as a uvarint bitmask
	// (treeCap* below). Only meaningful with modeTree. A server that grants
	// any of them answers TREE_ACK (the granted mask) before its first TREE
	// reply; otherwise — or with a zero request — the descent runs
	// byte-identically to a pre-extension session.
	helloExtTree = 3
	// helloExtMapMode requests a map-construction mode as a uvarint
	// core.MapMode. The server is authoritative: it grants the request by
	// running the session's engines in that mode and shipping the mode in
	// the session config (an optional trailing config field), which is how
	// the client learns the grant. Servers that predate the extension, or
	// that refuse the mode, run recursive halving and ship the config
	// without the trailing field — byte-identical to a legacy session.
	helloExtMapMode = 4
	// helloExtStream asks for the session's whole content as one compressed
	// stream (payload: uvarint 1). A holder that grants it says so in the
	// session config (a second optional trailing field) and lays VERDICTS out
	// as wholeStream reads them: each whole file's length where its
	// compressed bytes went, then the segments after the new files. Servers
	// that predate the extension answer file by file, as they always did.
	helloExtStream = 5
	// helloExtDelta2 asks the holder to write delta format mode 2
	// (internal/delta.Mode2) in everything it encodes for this session (payload:
	// uvarint 1): DELTA sections, whole files in VERDICTS and FULL. Every
	// decoder reads every mode, so no grant is needed; a holder that predates
	// the extension writes mode 0 as it always did.
	helloExtDelta2 = 6
	// helloExtDeltaStream asks for the DELTA frame in the stream layout
	// (payload: uvarint 1): per-file headers, then the synced files' gaps
	// coded in shared segments (whole.go). A holder that grants it says so
	// in the session config (a third optional trailing field, after the
	// whole-content stream's grant, which it needs); servers that predate
	// the extension send one section per file, as they always did.
	helloExtDeltaStream = 7
)

// helloExts is the hello's extension trailer, one field per extension; the
// zero-extension value is helloExts{announce: -1}.
type helloExts struct {
	announce int64        // helloExtVersion: the stored version announced; -1: none
	treeCaps byte         // helloExtTree: requested treeCap* mask; 0: none
	mapMode  core.MapMode // helloExtMapMode: requested mode; MapHalving: none
	stream   bool         // helloExtStream: the whole-content stream requested
	delta2   bool         // helloExtDelta2: delta mode 2 requested
	dstream  bool         // helloExtDeltaStream: the delta stream requested
}

// encode appends the trailer to a hello: only the extensions that are set, in
// id order, and nothing at all when none is.
func (h helloExts) encode(b *wire.Buffer) {
	exts := [...]struct {
		id, v uint64
		set   bool
	}{
		{helloExtVersion, uint64(h.announce), h.announce >= 0},
		{helloExtTree, uint64(h.treeCaps), h.treeCaps != 0},
		{helloExtMapMode, uint64(h.mapMode), h.mapMode != core.MapHalving},
		{helloExtStream, 1, h.stream},
		{helloExtDelta2, 1, h.delta2},
		{helloExtDeltaStream, 1, h.dstream},
	}
	n := 0
	for _, e := range exts {
		if e.set {
			n++
		}
	}
	if n == 0 {
		return
	}
	b.Uvarint(uint64(n))
	for _, e := range exts {
		if e.set {
			var v [10]byte
			b.Uvarint(e.id)
			b.Bytes(wire.AppendUvarint(v[:0], e.v))
		}
	}
}

// parseHelloExts reads the trailer after the hello's mode byte. Values are cut
// down to what this implementation knows (tree capabilities to the defined
// bits), and unknown ids are skipped. A malformed trailer ends the parse with
// what was read so far: extensions are an optimization hint, never a reason
// to fail a session.
func parseHelloExts(hp *wire.Parser) helloExts {
	h := helloExts{announce: -1}
	n, err := hp.Uvarint()
	if err != nil {
		return h
	}
	for i := uint64(0); i < n; i++ {
		id, err := hp.Uvarint()
		if err != nil {
			return h
		}
		ext, err := hp.Bytes()
		if err != nil {
			return h
		}
		v, err := wire.NewParser(ext).Uvarint()
		if err != nil {
			continue // this extension is unusable; the next may not be
		}
		switch id {
		case helloExtVersion:
			h.announce = int64(v)
		case helloExtTree:
			h.treeCaps = byte(v) & (treeCapSpec | treeCapCross)
		case helloExtMapMode:
			h.mapMode = core.MapMode(v)
		case helloExtStream:
			h.stream = v == 1
		case helloExtDelta2:
			h.delta2 = v == 1
		case helloExtDeltaStream:
			h.dstream = v == 1
		}
	}
	return h
}

// Tree-mode capability bits carried in helloExtTree and TREE_ACK.
const (
	// treeCapSpec: speculative descent — internal-node TREE answers carry
	// several levels of descendant digests at once.
	treeCapSpec byte = 1 << 0
	// treeCapCross: cross-file matching — the client may omit renamed files
	// from its WANT (it copies them locally) and may tag wanted files with
	// an alternate-basis hint (wantAltBasis) it will sync against.
	treeCapCross byte = 1 << 1
)

// WANT-entry "have" byte. Legacy sessions encoded a bool (0/1); the values
// are chosen so those encodings are unchanged, with wantAltBasis only ever
// sent under a granted treeCapCross.
const (
	// wantAbsent: the client has no local basis; expect a full transfer.
	wantAbsent byte = 0
	// wantHave: the client has the same-path file as basis; run map+delta.
	wantHave byte = 1
	// wantAltBasis: the client has no same-path file but will sync against
	// an alternate local basis; the server treats it exactly like wantHave.
	wantAltBasis byte = 2
)
