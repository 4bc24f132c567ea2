package collection

import (
	"encoding/binary"
	"io/fs"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"msync/internal/core"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/pool"
	"msync/internal/sigcache"
	"msync/internal/stats"
)

// Source abstracts where a collection's bytes come from. The legacy
// path-keyed map is one implementation (MapSource); TreeSource streams a
// directory lazily, so neither endpoint needs the whole collection in
// memory, and consults a signature cache so unchanged files cost a stat
// instead of a hash.
type Source interface {
	// Manifest fingerprints the collection, sorted by path.
	Manifest() ([]ManifestEntry, error)
	// Load returns one file's content. Missing files report an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Load(path string) ([]byte, error)
	// Signature returns the cached signature for path, or nil. Engines use
	// it to skip block hashing; the values served are identical to freshly
	// computed ones, so wire output never depends on it.
	Signature(path string) *sigcache.Sig
}

// MapSource adapts a path-keyed content map to the Source interface.
type MapSource map[string][]byte

// Manifest implements Source.
func (m MapSource) Manifest() ([]ManifestEntry, error) { return BuildManifest(m), nil }

// Load implements Source.
func (m MapSource) Load(path string) ([]byte, error) {
	data, ok := m[path]
	if !ok {
		return nil, &fs.PathError{Op: "load", Path: path, Err: fs.ErrNotExist}
	}
	return data, nil
}

// Signature implements Source; maps carry no cached signatures.
func (m MapSource) Signature(string) *sigcache.Sig { return nil }

// ConfigFingerprint condenses the wire serialization of a protocol config
// into the signature-cache key component: any change that alters the block
// schedule changes the fingerprint and invalidates cached
// signatures. Workers is deliberately absent from the serialization (it
// cannot affect hash values), so it does not disturb the cache.
func ConfigFingerprint(cfg *core.Config) uint64 {
	sum := md4.Sum(encodeConfig(cfg))
	return binary.LittleEndian.Uint64(sum[:8])
}

// TreeSource serves a collection from a lazily walked directory tree,
// optionally backed by a signature cache. The manifest is computed once (a
// stat-backed cache lookup per file; only misses stream the file through
// MD4), spread over the tree's workers, and reused by every session,
// mirroring the server's manifest cache.
type TreeSource struct {
	tree     *dirio.Tree
	cache    *sigcache.Cache // nil: no cross-session caching
	fp       uint64          // engine config fingerprint for cache keys
	paranoid bool

	mu       sync.Mutex
	manifest []ManifestEntry
	sigs     []*sigcache.Sig // by manifest index: the cache's, else built on first ask

	bytesHashed atomic.Int64
}

// NewTreeSource creates a source over tree. cache may be nil; fingerprint
// keys cached signatures to the engine config (use ConfigFingerprint on the
// serving side, 0 on a pulling client, which caches only whole-file sums).
// With paranoid set, every cache hit is re-verified by streaming the file —
// catching content changes that restored size and mtime, at the cost of the
// hashing the cache was meant to avoid. The manifest runs on the worker
// bound the tree was opened with (dirio.OpenTreeWorkers).
func NewTreeSource(tree *dirio.Tree, cache *sigcache.Cache, fingerprint uint64, paranoid bool) *TreeSource {
	return &TreeSource{tree: tree, cache: cache, fp: fingerprint, paranoid: paranoid}
}

// Cache returns the backing signature cache (nil when uncached).
func (s *TreeSource) Cache() *sigcache.Cache { return s.cache }

// HashedBytes reports how many bytes this source has streamed through MD4
// for manifest fingerprints (cache misses and paranoid re-verification).
func (s *TreeSource) HashedBytes() int64 { return s.bytesHashed.Load() }

// Manifest implements Source. The files are fingerprinted in chunks over the
// tree's workers, each into its own slot; a failure reports the first
// failing file in path order.
func (s *TreeSource) Manifest() ([]ManifestEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest != nil {
		return s.manifest, nil
	}
	files := s.tree.Files()
	manifest := make([]ManifestEntry, len(files))
	sigs := make([]*sigcache.Sig, len(files))
	err := pool.Range(s.tree.Workers(), len(files), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			fi := files[i]
			var sum [md4.Size]byte
			var err error
			if s.cache == nil {
				sum, _, err = s.hash(fi)
			} else if sigs[i], err = s.cachedSignature(fi); err == nil {
				sum = sigs[i].Sum
			}
			if err != nil {
				return err
			}
			manifest[i] = ManifestEntry{Path: fi.Path, Len: int(fi.Size), Sum: sum}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.manifest, s.sigs = manifest, sigs
	return manifest, nil
}

// cachedSignature resolves one file's signature through the cache: a hit
// (optionally re-verified), or a streamed hash that is then cached.
func (s *TreeSource) cachedSignature(fi dirio.FileInfo) (*sigcache.Sig, error) {
	var hashErr error
	key := sigcache.Key{Path: fi.Path, Size: fi.Size, MTime: fi.MTime.UnixNano(), CTime: fi.CTime, Fingerprint: s.fp}
	var verify func(*sigcache.Sig) bool
	if s.paranoid {
		verify = func(sig *sigcache.Sig) bool {
			sum, n, err := s.hash(fi)
			if err != nil {
				hashErr = err
				return false
			}
			return sum == sig.Sum && n == sig.Len
		}
	}
	if sig, ok := s.cache.Get(key, verify); ok {
		return sig, nil
	}
	if hashErr != nil {
		return nil, hashErr
	}
	sum, n, err := s.hash(fi)
	if err != nil {
		return nil, err
	}
	sig := sigcache.NewSig(n, sum)
	s.cache.Put(key, sig)
	return sig, nil
}

// hash streams one file through MD4 and counts the bytes.
func (s *TreeSource) hash(fi dirio.FileInfo) ([md4.Size]byte, int64, error) {
	sum, n, err := s.tree.HashFile(fi.Path)
	if err == nil {
		s.bytesHashed.Add(n)
	}
	return sum, n, err
}

// Load implements Source.
func (s *TreeSource) Load(path string) ([]byte, error) { return s.tree.Load(path) }

// Signature implements Source: the cache's signature for path or, without a
// cache, one built from its manifest entry the first time a session asks, so
// the levels engines add to it serve the sessions after.
func (s *TreeSource) Signature(path string) *sigcache.Sig {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := slices.BinarySearchFunc(s.manifest, path, func(e ManifestEntry, path string) int {
		return strings.Compare(e.Path, path)
	})
	if !ok {
		return nil
	}
	if s.sigs[i] == nil {
		s.sigs[i] = sigcache.NewSig(int64(s.manifest[i].Len), s.manifest[i].Sum)
	}
	return s.sigs[i]
}

// cacheBacked lets the session layer discover a source's signature cache
// without depending on the concrete type.
type cacheBacked interface{ Cache() *sigcache.Cache }

// hashAccounting lets the session layer meter a source's streamed hashing.
type hashAccounting interface{ HashedBytes() int64 }

// accounting snapshots a source's cache and hashing counters at session
// start so their deltas can be attributed to one session's Costs.
type accounting struct {
	cache  *sigcache.Cache
	cache0 sigcache.Stats
	hasher hashAccounting
	bytes0 int64
}

// beginAccounting snapshots src's counters.
func beginAccounting(src Source) *accounting {
	a := &accounting{}
	if cb, ok := src.(cacheBacked); ok && cb.Cache() != nil {
		a.cache = cb.Cache()
		a.cache0 = a.cache.Stats()
	}
	if h, ok := src.(hashAccounting); ok {
		a.hasher = h
		a.bytes0 = h.HashedBytes()
	}
	return a
}

// finish folds the counter deltas into costs and flushes dirty signatures
// (engines add levels during the session) to the cache's disk store.
func (a *accounting) finish(costs *stats.Costs) {
	if a.hasher != nil {
		costs.BytesHashed += a.hasher.HashedBytes() - a.bytes0
	}
	if a.cache == nil {
		return
	}
	d := a.cache.Stats().Sub(a.cache0)
	costs.CacheHits += d.Hits
	costs.CacheMisses += d.Misses
	costs.CacheEvictions += d.Evictions
	a.cache.Flush()
}
