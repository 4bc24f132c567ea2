package merkle

import (
	"sync"

	"msync/internal/md4"
)

// TreeCache memoizes built trees per announced depth for one immutable
// entry set, so a side answering (or driving) many reconciliation sessions
// hashes its collection into a trie once per depth instead of once per
// session, and Rebase carries them to the next entry set in O(changed ·
// depth) hashes. Trees live in memory only. Safe for concurrent use.
type TreeCache struct {
	mu      sync.Mutex
	entries []Entry
	fp      [md4.Size]byte
	trees   map[int]*Tree
}

// NewTreeCache creates a cache over entries — a manifest, sorted by path —
// keyed by fp, the digest of that manifest.
func NewTreeCache(entries []Entry, fp [md4.Size]byte) *TreeCache {
	return &TreeCache{entries: entries, fp: fp, trees: make(map[int]*Tree)}
}

// NewTreeCacheAt is NewTreeCache; dir is ignored.
//
// Deprecated: trees are no longer persisted. Use NewTreeCache.
func NewTreeCacheAt(entries []Entry, fp [md4.Size]byte, dir string) *TreeCache {
	return NewTreeCache(entries, fp)
}

// Fingerprint reports the manifest fingerprint the cache was keyed with.
func (tc *TreeCache) Fingerprint() [md4.Size]byte { return tc.fp }

// rebuildCutoff decides whether a diff of nd changes against n entries is
// worth applying incrementally; past half the collection a fresh Build is
// cheaper and allocates tighter buckets.
func rebuildCutoff(nd, n int) bool { return nd > n/2 }

// Tree returns the tree at the given depth, building it at most once.
func (tc *TreeCache) Tree(depth int) *Tree {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	t, ok := tc.trees[depth]
	if !ok {
		t = Build(tc.entries, depth)
		tc.trees[depth] = t
	}
	return t
}

// Rebase carries the cache forward to a new entry set, sorted by path like the
// first: every already-built tree is updated in place from the set difference
// (O(changed · depth) hashing) rather than rebuilt. The receiver must not be
// used afterwards — its trees now belong to the returned cache.
func (tc *TreeCache) Rebase(entries []Entry, fp [md4.Size]byte) *TreeCache {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	nc := NewTreeCache(entries, fp)
	ups, dels := changeSet(tc.entries, entries)
	if rebuildCutoff(len(ups)+len(dels), len(entries)) {
		return nc
	}
	for d, t := range tc.trees {
		t.Update(ups, dels)
		nc.trees[d] = t
	}
	tc.trees = make(map[int]*Tree)
	return nc
}
