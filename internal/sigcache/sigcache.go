// Package sigcache implements a persistent signature cache for repeated
// collection syncs: per-file whole-file fingerprints and per-round block-hash
// level tables, keyed by (path, size, mtime, ctime, engine config
// fingerprint) so any observable change to a file or to the hashing
// configuration invalidates its entry.
//
// The cache has an in-memory LRU front bounded by a byte budget and an
// optional on-disk store (see disk.go) so signatures survive process
// restarts. It is concurrency-safe: collection sessions running in parallel
// share one Cache and may share individual Sig values.
//
// Signatures are purely local acceleration state. They are never serialized
// into the protocol, and a cached hash always equals the hash the engine
// would have computed from the file bytes — so syncs are byte-identical on
// the wire whether the cache is enabled, disabled, cold, or warm. The one
// caveat is staleness: on platforms without a stat ctime, a file whose
// content changed while size and mtime were restored hits a stale entry
// (see Options.Paranoid); where ctime is reported it widens the key and
// catches exactly that rewrite.
package sigcache

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies one file's signature. Two files with equal keys are assumed
// to have equal content (the documented mtime-granularity staleness caveat).
type Key struct {
	// Path is the collection-relative slash path.
	Path string
	// Size is the file length in bytes.
	Size int64
	// MTime is the modification time in Unix nanoseconds.
	MTime int64
	// CTime is the inode change time in Unix nanoseconds, 0 on platforms
	// that don't report one. ctime cannot be restored from userspace, so it
	// catches content rewrites that put size and mtime back — the stale-hit
	// caveat then only remains where CTime is 0.
	CTime int64
	// Fingerprint identifies the engine configuration whose block schedule
	// the cached levels follow (0 when no engine config applies, e.g. on the
	// client, which caches only whole-file sums).
	Fingerprint uint64
}

// Sig is one file's cached signature: the whole-file MD4 sum plus lazily
// built block-hash level tables, one per schedule block size. A Sig may be
// shared by concurrent sessions; Level serializes builds per Sig.
type Sig struct {
	// Len is the file length the signature was computed over.
	Len int64
	// Sum is the whole-file MD4 fingerprint (the manifest entry sum).
	Sum [16]byte

	mu     sync.Mutex
	levels map[int][]uint64
	dirty  bool
}

// NewSig returns a signature holding the whole-file sum with no levels yet.
func NewSig(length int64, sum [16]byte) *Sig {
	return &Sig{Len: length, Sum: sum}
}

// Level returns the block-hash table for schedule block size b, building and
// memoizing it via build on first use. The build runs under the Sig's lock,
// so concurrent sessions needing the same level compute it once.
func (s *Sig) Level(b int, build func() []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.levels[b]; ok {
		return l
	}
	l := build()
	if s.levels == nil {
		s.levels = make(map[int][]uint64)
	}
	s.levels[b] = l
	s.dirty = true
	return l
}

// PeekLevel returns the memoized table for block size b, or nil.
func (s *Sig) PeekLevel(b int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.levels[b]
}

// setLevel installs a table loaded from disk without marking the Sig dirty.
func (s *Sig) setLevel(b int, l []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.levels == nil {
		s.levels = make(map[int][]uint64)
	}
	s.levels[b] = l
}

// snapshot returns the level tables in deterministic order plus the dirty
// flag, clearing it (the caller is about to persist the Sig).
func (s *Sig) snapshot(clearDirty bool) (blockSizes []int, tables [][]uint64, dirty bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dirty = s.dirty
	if clearDirty {
		s.dirty = false
	}
	for b := range s.levels {
		blockSizes = append(blockSizes, b)
	}
	sort.Ints(blockSizes)
	for _, b := range blockSizes {
		tables = append(tables, s.levels[b])
	}
	return blockSizes, tables, dirty
}

// cost estimates the memory footprint charged against the LRU budget.
func (s *Sig) cost(path string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := int64(len(path)) + 96 // struct, map and bookkeeping overhead
	for _, l := range s.levels {
		c += int64(len(l))*8 + 48
	}
	return c
}

// Stats are the cache's monotonic counters. Snapshot with Cache.Stats and
// subtract two snapshots to attribute activity to one session.
type Stats struct {
	// Hits counts lookups answered from memory or disk.
	Hits int64
	// Misses counts lookups that found nothing (including corrupt or
	// key-mismatched disk entries, and paranoid-mode rejections).
	Misses int64
	// Evictions counts entries dropped from memory to fit the budget.
	Evictions int64
	// DiskHits counts the subset of Hits served by promoting a disk entry.
	DiskHits int64
	// BadEntries counts disk entries discarded as corrupt or mismatched.
	BadEntries int64
	// Stores counts Put calls and dirty flushes.
	Stores int64
}

// Sub returns s - o, for per-session attribution.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		Evictions:  s.Evictions - o.Evictions,
		DiskHits:   s.DiskHits - o.DiskHits,
		BadEntries: s.BadEntries - o.BadEntries,
		Stores:     s.Stores - o.Stores,
	}
}

// Options configures a Cache.
type Options struct {
	// Dir is the on-disk store directory ("" disables persistence). It is
	// created on first write.
	Dir string
	// MemBytes bounds the in-memory layer (<= 0 selects DefaultMemBytes).
	MemBytes int64
}

// DefaultMemBytes is the in-memory budget when Options.MemBytes is not set.
const DefaultMemBytes = 64 << 20

// Cache is the two-level signature cache. The zero value is not usable; use
// New.
type Cache struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[string]*list.Element // by Path
	lru     *list.List               // front = most recent
	used    int64

	hits, misses, evictions, diskHits, badEntries, stores atomic.Int64
}

// entry is one resident cache slot. A path maps to at most one entry; a Put
// or lookup under a different Key (size/mtime/fingerprint changed) replaces
// it, mirroring the one-file-per-path disk layout.
type entry struct {
	key  Key
	sig  *Sig
	cost int64
}

// New returns a Cache with the given options.
func New(opts Options) *Cache {
	budget := opts.MemBytes
	if budget <= 0 {
		budget = DefaultMemBytes
	}
	return &Cache{
		dir:     opts.Dir,
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the signature for k, consulting memory then disk. A disk entry
// that is corrupt, truncated, from a different store version, or keyed
// differently is a miss, never an error.
//
// If verify is non-nil it is called on a candidate hit; returning false
// rejects the entry (paranoid re-verification), which is counted as a miss
// and evicts the stale entry.
func (c *Cache) Get(k Key, verify func(*Sig) bool) (*Sig, bool) {
	c.mu.Lock()
	if el, ok := c.entries[k.Path]; ok {
		e := el.Value.(*entry)
		if e.key == k {
			c.lru.MoveToFront(el)
			sig := e.sig
			c.mu.Unlock()
			if verify != nil && !verify(sig) {
				c.drop(k.Path)
				c.misses.Add(1)
				return nil, false
			}
			c.hits.Add(1)
			return sig, true
		}
		// Same path, different key: the file changed; the slot is stale.
		c.removeLocked(el)
	}
	c.mu.Unlock()

	if c.dir != "" {
		if sig, ok := c.loadDisk(k); ok {
			if verify != nil && !verify(sig) {
				c.removeDisk(k.Path)
				c.misses.Add(1)
				return nil, false
			}
			c.insert(k, sig)
			c.hits.Add(1)
			c.diskHits.Add(1)
			return sig, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the signature for k, replacing any entry for the same path, and
// writes it through to disk when persistence is on.
func (c *Cache) Put(k Key, sig *Sig) {
	c.insert(k, sig)
	c.stores.Add(1)
	if c.dir != "" {
		c.storeDisk(k, sig)
	}
}

// Flush persists every resident signature that gained levels since it was
// last written. Collection endpoints call it at session end so warm restarts
// find complete level tables on disk. A no-op without a disk store.
func (c *Cache) Flush() {
	if c.dir == "" {
		return
	}
	c.mu.Lock()
	var dirty []*entry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if _, _, d := e.sig.snapshot(false); d {
			dirty = append(dirty, e)
		}
	}
	c.mu.Unlock()
	for _, e := range dirty {
		c.storeDisk(e.key, e.sig)
		c.stores.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		DiskHits:   c.diskHits.Load(),
		BadEntries: c.badEntries.Load(),
		Stores:     c.stores.Load(),
	}
}

// insert makes sig resident under k and evicts LRU entries over budget.
func (c *Cache) insert(k Key, sig *Sig) {
	cost := sig.cost(k.Path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k.Path]; ok {
		c.removeLocked(el)
	}
	el := c.lru.PushFront(&entry{key: k, sig: sig, cost: cost})
	c.entries[k.Path] = el
	c.used += cost
	for c.used > c.budget && c.lru.Len() > 1 {
		tail := c.lru.Back()
		c.removeLocked(tail)
		c.evictions.Add(1)
	}
}

// drop removes the resident entry for path, if any.
func (c *Cache) drop(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[path]; ok {
		c.removeLocked(el)
	}
}

// removeLocked unlinks el; c.mu must be held.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key.Path)
	c.used -= e.cost
}
