package collection

import (
	"encoding/binary"
	"errors"
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
	sum := md4.Sum(encodeConfig(cfg, grantNone))
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

	bytesHashed atomic.Int64 // streamed through MD4 for the manifest, paranoid re-verification included
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

// Manifest implements Source. The files are fingerprinted in chunks over the
// tree's workers, each into its own slot through its own dirio.Cursor; a
// failure reports the first failing file in path order.
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
		c := s.tree.Cursor()
		defer c.Close()
		for i := lo; i < hi; i++ {
			fi := files[i]
			var sum [md4.Size]byte
			var err error
			if s.cache == nil {
				sum, _, err = s.hash(c, fi)
			} else if sigs[i], err = s.cachedSignature(c, fi); err == nil {
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
func (s *TreeSource) cachedSignature(c *dirio.Cursor, fi dirio.FileInfo) (*sigcache.Sig, error) {
	var hashErr error
	key := sigcache.Key{Path: fi.Path, Size: fi.Size, MTime: fi.MTime.UnixNano(), CTime: fi.CTime, Fingerprint: s.fp}
	var verify func(*sigcache.Sig) bool
	if s.paranoid {
		verify = func(sig *sigcache.Sig) bool {
			sum, n, err := s.hash(c, fi)
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
	sum, n, err := s.hash(c, fi)
	if err != nil {
		return nil, err
	}
	sig := sigcache.NewSig(n, sum)
	s.cache.Put(key, sig)
	return sig, nil
}

// hash streams one file through MD4 and counts the bytes.
func (s *TreeSource) hash(c *dirio.Cursor, fi dirio.FileInfo) ([md4.Size]byte, int64, error) {
	sum, n, err := c.HashFile(fi.Path)
	if err == nil {
		s.bytesHashed.Add(n)
	}
	return sum, n, err
}

// Load implements Source.
func (s *TreeSource) Load(path string) ([]byte, error) { return s.tree.Load(path) }

// applied writes res, a push this source received, into its directory as
// Result.Apply writes a pull's, then walks the directory again into a new
// source over the same signature cache, fingerprint and worker bound. Files
// the new walk cannot stat are left out of it, as at the first walk. A failed
// write is returned beside the new walk: the directory may hold part of res.
func (s *TreeSource) applied(res *Result) (*TreeSource, error) {
	root := s.tree.Root()
	err := dirio.ApplyChanges(root, res.Files, res.Deleted)
	tree, _, werr := dirio.OpenTreeWorkers(root, s.tree.Workers())
	if werr != nil {
		return nil, errors.Join(err, werr)
	}
	return NewTreeSource(tree, s.cache, s.fp, s.paranoid), err
}

// dirOf returns the directory tree src serves, bare or under a version store;
// nil for any other source. A receiver over a tree lists the files it keeps
// by name (keep), a push into one is written to its directory (adopt), a
// session reads it through a cursor (load), and its hashing and signature
// cache are what a session accounts (beginAccounting).
func dirOf(src Source) *TreeSource {
	if ss, ok := src.(*StoreSource); ok {
		src = ss.Source
	}
	ts, _ := src.(*TreeSource)
	return ts
}

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

// accounting snapshots the hashing and signature-cache counters of the
// directory tree a source serves at session start, so their deltas can be
// attributed to one session's Costs.
type accounting struct {
	tree   *TreeSource // nil: the source serves no directory
	bytes0 int64
	cache0 sigcache.Stats
}

// beginAccounting snapshots the counters of the tree src serves (dirOf).
func beginAccounting(src Source) *accounting {
	a := &accounting{tree: dirOf(src)}
	if a.tree != nil {
		a.bytes0 = a.tree.bytesHashed.Load()
		if a.tree.cache != nil {
			a.cache0 = a.tree.cache.Stats()
		}
	}
	return a
}

// finish folds the counter deltas into costs and flushes dirty signatures
// (engines add levels during the session) to the cache's disk store.
func (a *accounting) finish(costs *stats.Costs) {
	if a.tree == nil {
		return
	}
	costs.BytesHashed += a.tree.bytesHashed.Load() - a.bytes0
	if a.tree.cache == nil {
		return
	}
	d := a.tree.cache.Stats().Sub(a.cache0)
	costs.CacheHits += d.Hits
	costs.CacheMisses += d.Misses
	costs.CacheEvictions += d.Evictions
	a.tree.cache.Flush()
}
