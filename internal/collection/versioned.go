package collection

import (
	"errors"

	"msync/internal/md4"
	"msync/internal/store"
)

// VersionedSource extends Source with a persistent version history: immutable
// snapshots of the collection, each identified by a version number and a
// manifest digest, with precomputed journal deltas between a stored version
// and the latest one. A Server whose source implements VersionedSource can
// answer a client that announces a known version with the journal delta
// instead of running fresh map construction; any miss (unknown or GC'd
// version, digest drift, unreadable history) falls back to the full protocol,
// counted and logged with its reason.
type VersionedSource interface {
	Source
	// CurrentVersion reports the latest committed version, 0 when none.
	CurrentVersion() uint64
	// Snapshot commits the source's current manifest as a new version
	// (idempotent when nothing changed) and returns its number.
	Snapshot() (uint64, error)
	// VersionDelta returns the precomputed journal delta from base to the
	// latest version, or a miss: false, and a Delta that holds only the
	// reason. baseDigest is the digest of the client's announced manifest and
	// currentDigest of the server's live one; both must match the stored
	// versions exactly for a hit, whose Delta lists the base manifest.
	VersionDelta(base uint64, baseDigest, currentDigest [md4.Size]byte) (*store.Delta, bool)
	// VersionContent reconstructs stored content by whole-file checksum,
	// for full-transfer fallbacks on journal files.
	VersionContent(sum [md4.Size]byte) ([]byte, error)
}

// ErrNotVersioned is returned by Server.Snapshot when the server's source
// carries no version store.
var ErrNotVersioned = errors.New("collection: server has no version store")

// ManifestDigest fingerprints a manifest by hashing its MANIFEST encoding, so
// the digest of a stored version can be compared directly against md4.Sum of
// a received MANIFEST payload. A MANIFEST_PACKED frame is digested as the list
// it decodes to: the packed encoding never defines a digest.
func ManifestDigest(m []ManifestEntry) [md4.Size]byte {
	return md4.Sum(encodeManifest(m))
}

// StoreSource wraps an inner Source with a version store, implementing
// VersionedSource. The inner source stays the live view; the store only
// captures history at Snapshot time.
type StoreSource struct {
	Source
	st *store.Store
}

// NewStoreSource wraps inner with the given store.
func NewStoreSource(inner Source, st *store.Store) *StoreSource {
	return &StoreSource{Source: inner, st: st}
}

// WithInner returns a StoreSource over the same store but a new live source;
// used when push adoption replaces the collection under a versioned server.
func (s *StoreSource) WithInner(inner Source) *StoreSource {
	return &StoreSource{Source: inner, st: s.st}
}

// CurrentVersion implements VersionedSource.
func (s *StoreSource) CurrentVersion() uint64 { return s.st.LatestVersion() }

// Snapshot implements VersionedSource: it fingerprints the live source and
// commits the result as a new store version, loading changed content through
// the source, or in path order through one cursor over a directory.
func (s *StoreSource) Snapshot() (uint64, error) {
	m, err := s.Source.Manifest()
	if err != nil {
		return 0, err
	}
	load := s.Source.Load
	if ts := dirOf(s); ts != nil {
		c := ts.tree.Cursor()
		defer c.Close()
		load = c.Load
	}
	v, _, err := s.st.Snapshot(m, ManifestDigest(m), load)
	return v, err
}

// VersionDelta implements VersionedSource.
func (s *StoreSource) VersionDelta(base uint64, baseDigest, currentDigest [md4.Size]byte) (*store.Delta, bool) {
	return s.st.Delta(base, baseDigest, currentDigest)
}

// VersionContent implements VersionedSource.
func (s *StoreSource) VersionContent(sum [md4.Size]byte) ([]byte, error) {
	return s.st.Content(sum)
}

// Snapshot cuts a new store version from the server's current collection.
// It returns ErrNotVersioned when the server was built without a store.
func (s *Server) Snapshot() (uint64, error) {
	vs, ok := s.source().(VersionedSource)
	if !ok {
		return 0, ErrNotVersioned
	}
	return vs.Snapshot()
}
