package merkle

import (
	"sync"

	"msync/internal/md4"
)

// TreeCache memoizes built trees per announced depth for one immutable
// entry set, so a side answering (or driving) many reconciliation sessions
// hashes its collection into a trie once per depth instead of once per
// session. Safe for concurrent use.
//
// A cache created with NewTreeCacheAt additionally persists each built tree
// to disk keyed by the manifest fingerprint, and on the next process start
// restores it — either verbatim (fingerprint match) or by incrementally
// updating the stale tree from the entry-set diff, which costs O(changed ·
// depth) hashes instead of an O(n) rebuild.
type TreeCache struct {
	mu      sync.Mutex
	entries []Entry
	fp      [md4.Size]byte
	dir     string
	trees   map[int]*Tree
}

// NewTreeCacheAt creates a cache over entries — a manifest, sorted by path —
// whose trees persist in dir (the signature-cache directory), keyed by fp, the
// digest of that manifest. An empty dir disables persistence.
func NewTreeCacheAt(entries []Entry, fp [md4.Size]byte, dir string) *TreeCache {
	return &TreeCache{entries: entries, fp: fp, dir: dir, trees: make(map[int]*Tree)}
}

// Fingerprint reports the manifest fingerprint the cache was keyed with.
func (tc *TreeCache) Fingerprint() [md4.Size]byte { return tc.fp }

// rebuildCutoff decides whether a diff of nd changes against n entries is
// worth applying incrementally; past half the collection a fresh Build is
// cheaper and allocates tighter buckets.
func rebuildCutoff(nd, n int) bool { return nd > n/2 }

// Tree returns the tree at the given depth, building it at most once: from
// memory, from the persisted file (incrementally updated if it was saved
// under a different fingerprint), or from scratch.
func (tc *TreeCache) Tree(depth int) *Tree {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.trees[depth]; ok {
		return t
	}
	if tc.dir != "" {
		if t, diskFP, ok := loadTree(tc.dir, depth); ok {
			if diskFP == tc.fp {
				tc.trees[depth] = t
				return t
			}
			ups, dels := changeSet(t.AllEntries(), tc.entries)
			if !rebuildCutoff(len(ups)+len(dels), len(tc.entries)) {
				t.Update(ups, dels)
				saveTree(tc.dir, tc.fp, t)
				tc.trees[depth] = t
				return t
			}
		}
	}
	t := Build(tc.entries, depth)
	if tc.dir != "" {
		saveTree(tc.dir, tc.fp, t)
	}
	tc.trees[depth] = t
	return t
}

// Rebase carries the cache forward to a new entry set, sorted by path like the
// first: every already-built tree is updated in place from the set difference
// (O(changed · depth) hashing) rather than rebuilt. The receiver must not be
// used afterwards — its trees now belong to the returned cache.
func (tc *TreeCache) Rebase(entries []Entry, fp [md4.Size]byte) *TreeCache {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	nc := &TreeCache{entries: entries, fp: fp, dir: tc.dir, trees: make(map[int]*Tree)}
	ups, dels := changeSet(tc.entries, entries)
	if rebuildCutoff(len(ups)+len(dels), len(entries)) {
		return nc
	}
	for d, t := range tc.trees {
		t.Update(ups, dels)
		nc.trees[d] = t
		if nc.dir != "" {
			saveTree(nc.dir, fp, t)
		}
	}
	tc.trees = make(map[int]*Tree)
	return nc
}
