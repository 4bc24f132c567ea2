package pubsig

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"msync/internal/collection"
	"msync/internal/dirio"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/wire"
)

// Artifact key layout inside an ArtifactStore. The HTTP surface mirrors it
// one-to-one (PROTOCOL.md "Published artifacts"), so a DirStore directory
// can be served verbatim by any static file server or object store.
//
//	v/<%08d>/manifest      versioned manifest (one per published version)
//	sig/<hex md4>          per-file signature blob, keyed by file content
//	blob/<hex md4>         full file content, keyed by file content
//	delta/<%08d>-<%08d>    manifest delta between consecutive versions
const (
	manifestKeyFmt = "v/%08d/manifest"
	deltaKeyFmt    = "delta/%08d-%08d"
	sigKeyPrefix   = "sig/"
	blobKeyPrefix  = "blob/"
)

func manifestKey(n uint64) string       { return fmt.Sprintf(manifestKeyFmt, n) }
func deltaKey(base, cur uint64) string  { return fmt.Sprintf(deltaKeyFmt, base, cur) }
func sigKey(sum [md4.Size]byte) string  { return sigKeyPrefix + hex.EncodeToString(sum[:]) }
func blobKey(sum [md4.Size]byte) string { return blobKeyPrefix + hex.EncodeToString(sum[:]) }

// Artifact format magics: four fixed bytes so a truncated or misrouted blob
// fails parsing immediately instead of decoding as garbage counts.
var (
	manifestMagic = [4]byte{'p', 's', 'm', '1'}
	deltaMagic    = [4]byte{'p', 's', 'd', '1'}
)

// Manifest is the parsed form of a published manifest artifact: one
// version's complete file list with the same per-file fingerprints the
// interactive protocol exchanges (collection.ManifestEntry), plus the
// manifest digest that names the collection state.
type Manifest struct {
	// Version is the published version number (1-based, consecutive).
	Version uint64
	// BlockSize is the signature block size every sig artifact of this
	// version was built with.
	BlockSize int
	// Digest is collection.ManifestDigest of Entries — the same fingerprint
	// a versioned interactive server uses to name this collection state.
	Digest [md4.Size]byte
	// Entries lists every file, sorted by path.
	Entries []collection.ManifestEntry
}

// EncodeManifest serializes a manifest artifact. Encoding is canonical
// (entries sorted by path, no timestamps), so the same collection state
// always produces byte-identical artifacts — the property that makes
// ETags stable across publisher restarts and replicas.
func EncodeManifest(m *Manifest) []byte {
	b := wire.NewBuffer(len(m.Entries)*32 + 64)
	b.Raw(manifestMagic[:])
	b.Uvarint(m.Version)
	b.Uvarint(uint64(m.BlockSize))
	b.Raw(m.Digest[:])
	filelist.Append(b, m.Entries)
	return b.Build()
}

// ErrBadArtifact reports a malformed manifest or delta artifact.
var ErrBadArtifact = errors.New("pubsig: malformed artifact")

// ParseManifest parses a manifest artifact, validating framing, bounds and
// the embedded digest against the entries.
func ParseManifest(data []byte) (*Manifest, error) {
	p := wire.NewParser(data)
	magic, err := p.Raw(4)
	if err != nil || string(magic) != string(manifestMagic[:]) {
		return nil, ErrBadArtifact
	}
	m := &Manifest{}
	if m.Version, err = p.Uvarint(); err != nil || m.Version == 0 {
		return nil, ErrBadArtifact
	}
	bs, err := p.Uvarint()
	if err != nil || bs == 0 || bs > 1<<30 {
		return nil, ErrBadArtifact
	}
	m.BlockSize = int(bs)
	sum, err := p.Raw(md4.Size)
	if err != nil {
		return nil, ErrBadArtifact
	}
	copy(m.Digest[:], sum)
	if m.Entries, err = filelist.Parse(p); err != nil || p.Remaining() != 0 {
		return nil, ErrBadArtifact
	}
	if collection.ManifestDigest(m.Entries) != m.Digest {
		return nil, ErrBadArtifact
	}
	return m, nil
}

// Delta is the parsed form of a published delta artifact: what changed
// between two versions, in manifest terms. Content still travels through
// the per-file signature + range mechanism; the delta only spares a reader
// the full manifest download and tells it which files to even look at.
type Delta struct {
	// Base and Current are the version pair the delta spans.
	Base, Current uint64
	// Digest is the Current manifest's digest.
	Digest [md4.Size]byte
	// Deleted lists paths removed since Base, sorted.
	Deleted []string
	// Upserts lists added or modified entries (current content), sorted by
	// path.
	Upserts []collection.ManifestEntry
}

// EncodeDelta serializes a delta artifact (canonical, like EncodeManifest).
func EncodeDelta(d *Delta) []byte {
	b := wire.NewBuffer(len(d.Upserts)*32 + len(d.Deleted)*16 + 64)
	b.Raw(deltaMagic[:])
	b.Uvarint(d.Base)
	b.Uvarint(d.Current)
	b.Raw(d.Digest[:])
	b.Uvarint(uint64(len(d.Deleted)))
	for _, p := range d.Deleted {
		b.String(p)
	}
	filelist.Append(b, d.Upserts)
	return b.Build()
}

// ParseDelta parses a delta artifact with the same strictness as
// ParseManifest.
func ParseDelta(data []byte) (*Delta, error) {
	p := wire.NewParser(data)
	magic, err := p.Raw(4)
	if err != nil || string(magic) != string(deltaMagic[:]) {
		return nil, ErrBadArtifact
	}
	d := &Delta{}
	if d.Base, err = p.Uvarint(); err != nil {
		return nil, ErrBadArtifact
	}
	if d.Current, err = p.Uvarint(); err != nil || d.Current <= d.Base {
		return nil, ErrBadArtifact
	}
	sum, err := p.Raw(md4.Size)
	if err != nil {
		return nil, ErrBadArtifact
	}
	copy(d.Digest[:], sum)
	nd, err := p.Uvarint()
	if err != nil || nd > uint64(p.Remaining()) {
		return nil, ErrBadArtifact
	}
	prev := ""
	for i := uint64(0); i < nd; i++ {
		path, err := p.String()
		if err != nil || (i > 0 && path <= prev) {
			return nil, ErrBadArtifact
		}
		prev = path
		d.Deleted = append(d.Deleted, path)
	}
	if d.Upserts, err = filelist.Parse(p); err != nil || p.Remaining() != 0 {
		return nil, ErrBadArtifact
	}
	return d, nil
}

// Publisher snapshots collection rounds into versioned, content-addressed
// artifacts inside an ArtifactStore. Publishing is the only computation the
// origin ever does: once the artifacts exist, any number of readers are
// served by dumb byte serving (Handler, a static file server, or a CDN in
// front of either) with zero per-reader hashing — the paper's
// server-friendly scenario (§1.1, application 3) at collection scale.
//
// Publish is idempotent: an unchanged collection produces no new version,
// and re-publishing the same state writes byte-identical artifacts (the
// store's immutability check enforces it).
type Publisher struct {
	store     ArtifactStore
	blockSize int
	metrics   *obs.Registry

	mu     sync.Mutex
	latest uint64
	prev   *Manifest // latest published manifest, nil when store is empty
}

// PublisherOption configures a Publisher.
type PublisherOption func(*Publisher) error

// WithBlockSize sets the signature block size (default DefaultBlockSize).
// All versions in one artifact store must share it: signature blobs are
// keyed by file content only, so mixing block sizes would conflict.
func WithBlockSize(n int) PublisherOption {
	return func(p *Publisher) error {
		if n <= 0 {
			return fmt.Errorf("pubsig: block size must be positive, got %d", n)
		}
		p.blockSize = n
		return nil
	}
}

// WithPublisherMetrics counts publish work (versions, files, bytes hashed,
// artifact bytes written) in the given registry.
func WithPublisherMetrics(r *obs.Registry) PublisherOption {
	return func(p *Publisher) error {
		p.metrics = r
		return nil
	}
}

// NewPublisher opens a publisher over the given artifact store, recovering
// the latest published version (if any) so publishing continues the version
// sequence across restarts.
func NewPublisher(s ArtifactStore, opts ...PublisherOption) (*Publisher, error) {
	p := &Publisher{store: s, blockSize: DefaultBlockSize}
	for _, opt := range opts {
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	latest, err := LatestVersion(s)
	if err != nil {
		return nil, fmt.Errorf("pubsig: recovering versions: %w", err)
	}
	if latest > 0 {
		data, err := s.Get(manifestKey(latest))
		if err != nil {
			return nil, fmt.Errorf("pubsig: recovering manifest v%d: %w", latest, err)
		}
		m, err := ParseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("pubsig: recovering manifest v%d: %w", latest, err)
		}
		if m.BlockSize != p.blockSize {
			return nil, fmt.Errorf("pubsig: store was published with block size %d, publisher configured with %d", m.BlockSize, p.blockSize)
		}
		p.latest, p.prev = latest, m
	}
	return p, nil
}

// PublishTree snapshots a directory tree (walked lazily via dirio: content
// is loaded per changed file, not held all at once).
func (p *Publisher) PublishTree(t *dirio.Tree) (uint64, bool, error) {
	files := t.Files()
	entries := make([]collection.ManifestEntry, 0, len(files))
	var hashed int64
	c := t.Cursor()
	defer c.Close()
	for _, fi := range files {
		sum, n, err := c.HashFile(fi.Path)
		if err != nil {
			return 0, false, fmt.Errorf("pubsig: hashing %q: %w", fi.Path, err)
		}
		hashed += n
		entries = append(entries, collection.ManifestEntry{Path: fi.Path, Len: int(n), Sum: sum})
	}
	p.count("pubsig_publish_bytes_hashed", hashed)
	return p.publish(entries, t.Load)
}

func (p *Publisher) count(name string, n int64) {
	if p.metrics != nil && n != 0 {
		p.metrics.Counter(name).Add(n)
	}
}

// publish commits entries (path-sorted) as the next version, loading
// changed content on demand. The diff against the previous version is
// computed with filelist.Diff — the identical change semantics the
// interactive journal fast path commits — so the delta artifact and a
// versioned store agree about what "changed between versions" means.
func (p *Publisher) publish(entries []collection.ManifestEntry, load func(string) ([]byte, error)) (uint64, bool, error) {
	start := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()

	digest := collection.ManifestDigest(entries)
	var prevEntries []collection.ManifestEntry
	if p.prev != nil {
		if digest == p.prev.Digest {
			return p.latest, false, nil
		}
		prevEntries = p.prev.Entries
	}
	changes := filelist.Diff(prevEntries, entries)

	next := &Manifest{
		Version:   p.latest + 1,
		BlockSize: p.blockSize,
		Digest:    digest,
		Entries:   entries,
	}
	delta := &Delta{Base: p.latest, Current: next.Version, Digest: digest}

	var hashed, artifactBytes, files int64
	written := make(map[[md4.Size]byte]bool)
	for _, ch := range changes {
		if ch.Op == filelist.OpDelete {
			delta.Deleted = append(delta.Deleted, ch.Old.Path)
			continue
		}
		e := ch.New
		delta.Upserts = append(delta.Upserts, e)
		files++
		if written[e.Sum] {
			continue // several paths with identical content share artifacts
		}
		written[e.Sum] = true
		data, err := load(e.Path)
		if err != nil {
			return 0, false, fmt.Errorf("pubsig: loading %q: %w", e.Path, err)
		}
		if len(data) != e.Len || md4.Sum(data) != e.Sum {
			return 0, false, fmt.Errorf("pubsig: %q changed during publish", e.Path)
		}
		hashed += int64(len(data)) * 2 // manifest hash + per-block signature pass
		sig := Build(data, p.blockSize)
		if err := p.store.Put(blobKey(e.Sum), data); err != nil {
			return 0, false, err
		}
		if err := p.store.Put(sigKey(e.Sum), sig); err != nil {
			return 0, false, err
		}
		artifactBytes += int64(len(data) + len(sig))
	}

	// The manifest record is the commit point: blobs and sigs land first,
	// so a reader never sees a manifest referencing missing artifacts.
	mBytes := EncodeManifest(next)
	if err := p.store.Put(manifestKey(next.Version), mBytes); err != nil {
		return 0, false, err
	}
	artifactBytes += int64(len(mBytes))
	if p.latest > 0 {
		dBytes := EncodeDelta(delta)
		if err := p.store.Put(deltaKey(delta.Base, delta.Current), dBytes); err != nil {
			return 0, false, err
		}
		artifactBytes += int64(len(dBytes))
	}

	p.latest, p.prev = next.Version, next
	p.count("pubsig_publish_versions", 1)
	p.count("pubsig_publish_files", files)
	p.count("pubsig_publish_bytes_hashed", hashed)
	p.count("pubsig_publish_artifact_bytes", artifactBytes)
	if p.metrics != nil {
		p.metrics.Histogram("pubsig_publish_seconds", nil).ObserveDuration(time.Since(start))
	}
	return next.Version, true, nil
}

// LatestVersion inspects an artifact store directly (no Publisher state)
// and reports the newest published version, 0 when none. Read-side servers
// use it so replicas pointed at the same artifacts agree on /latest.
func LatestVersion(s ArtifactStore) (uint64, error) {
	keys, err := s.Keys("v/")
	if err != nil {
		return 0, err
	}
	var latest uint64
	for _, k := range keys {
		var n uint64
		if _, err := fmt.Sscanf(k, manifestKeyFmt, &n); err == nil && n > latest {
			latest = n
		}
	}
	return latest, nil
}

// ComposeDelta builds the delta from base to current by composing the
// stored consecutive version-to-version deltas. Composition is canonical
// (maps folded, output sorted), so every replica serves byte-identical
// /since responses. It fails with ErrNoArtifact when any link of the chain
// was never published or has been pruned.
func ComposeDelta(s ArtifactStore, base, current uint64) (*Delta, error) {
	if base >= current {
		return nil, fmt.Errorf("pubsig: bad delta span %d..%d", base, current)
	}
	upserts := make(map[string]collection.ManifestEntry)
	deleted := make(map[string]bool)
	var digest [md4.Size]byte
	for v := base; v < current; v++ {
		data, err := s.Get(deltaKey(v, v+1))
		if err != nil {
			return nil, err
		}
		d, err := ParseDelta(data)
		if err != nil {
			return nil, err
		}
		for _, path := range d.Deleted {
			delete(upserts, path)
			deleted[path] = true
		}
		for _, e := range d.Upserts {
			delete(deleted, e.Path)
			upserts[e.Path] = e
		}
		digest = d.Digest
	}
	out := &Delta{Base: base, Current: current, Digest: digest}
	for path := range deleted {
		out.Deleted = append(out.Deleted, path)
	}
	for _, e := range upserts {
		out.Upserts = append(out.Upserts, e)
	}
	sortDelta(out)
	return out, nil
}

func sortDelta(d *Delta) {
	sort.Strings(d.Deleted)
	sort.Slice(d.Upserts, func(i, j int) bool { return d.Upserts[i].Path < d.Upserts[j].Path })
}
