// Package merkle implements hash-tree change detection for replicated file
// collections: finding WHICH files differ with communication proportional
// to the number of changes rather than the collection size.
//
// The paper uses a flat per-file fingerprint manifest and points to the
// file-comparison literature (Metzner; Madej; Abdel-Ghaffar/El Abbadi) for
// doing better when almost everything is unchanged. This package is that
// substrate: both sides build a binary hash trie of fixed depth over the
// MD4 of each path (so differing file SETS still align), with per-file
// content fingerprints in the leaf buckets; a short multi-round exchange
// then locates the differing buckets.
//
// Wire shape (driven by the collection layer):
//
//	initiator → responder: tree depth + root digest
//	responder → initiator: "equal" | children digests of the root
//	initiator → responder: IDs of nodes whose digests differ locally
//	responder → initiator: children digests / leaf bucket contents
//	...until no internal nodes remain in dispute.
//
// When both sides enable speculative descent, internal-node answers carry
// several levels of descendant digests at once so a typical descent takes
// roughly half the roundtrips; see Responder.Speculative.
//
// After the exchange the initiator knows, exactly: paths changed, paths
// only at the responder, and paths only at itself.
package merkle

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/wire"
)

// Entry is one file fingerprint: the path and a strong hash of content
// (plus length, so the collection layer can size engine state).
type Entry = filelist.Entry

// MaxDepth bounds the trie depth (2^MaxDepth leaf buckets). Depths above
// denseLimit switch to a sparse representation, so the cap can sit far past
// the point where a dense digest array (32 MB per depth step at 2^21) would
// hurt: 2^28 buckets keeps buckets at ~4 entries out to the billion-file
// range while a sparse tree only materializes the occupied spine.
const MaxDepth = 28

// denseLimit is the largest depth stored as flat arrays; deeper trees use
// hash maps keyed by node id. A variable so tests can force the sparse path
// at small depths and prove both representations hash identically.
var denseLimit = 20

// Tree is a fixed-depth binary hash trie over path hashes.
//
// Two storage layouts share one digest definition: dense trees (depth <=
// denseLimit) keep every bucket and node in flat slices; sparse trees keep
// only non-empty buckets and only nodes whose digest differs from the
// all-empty subtree of the same height. Both produce bit-identical wire
// messages at the same depth.
type Tree struct {
	depth int
	count int

	// Dense layout: 2^depth buckets (entries sorted by path) and
	// heap-ordered digests, 1-based, len 2^(depth+1).
	buckets [][]Entry
	nodes   [][md4.Size]byte

	// Sparse layout (nil when dense).
	sbuckets map[int32][]Entry
	snodes   map[int32][md4.Size]byte
}

// DepthFor picks a depth that yields small buckets (~4 entries).
func DepthFor(n int) int {
	d := 0
	for (n>>d) > 4 && d < MaxDepth {
		d++
	}
	return d
}

// bucketOf maps a path to its leaf index.
func bucketOf(path string, depth int) int {
	if depth == 0 {
		return 0
	}
	h := md4.Sum([]byte(path))
	v := binary.BigEndian.Uint32(h[:4])
	return int(v >> (32 - uint(depth)))
}

func newTree(depth int) *Tree {
	if depth < 0 || depth > MaxDepth {
		panic(fmt.Sprintf("merkle: depth %d out of range", depth))
	}
	t := &Tree{depth: depth}
	if depth <= denseLimit {
		t.buckets = make([][]Entry, 1<<depth)
		t.nodes = make([][md4.Size]byte, 2<<depth)
	} else {
		t.sbuckets = make(map[int32][]Entry)
		t.snodes = make(map[int32][md4.Size]byte)
	}
	return t
}

// Build constructs the tree for a set of entries at the given depth.
func Build(entries []Entry, depth int) *Tree {
	t := newTree(depth)
	t.count = len(entries)
	for _, e := range entries {
		b := bucketOf(e.Path, depth)
		t.setBucket(b, append(t.bucket(b), e))
	}
	if t.nodes != nil {
		for i := range t.buckets {
			sortBucket(t.buckets[i])
			t.nodes[(1<<depth)+i] = bucketDigest(t.buckets[i])
		}
		for i := (1 << depth) - 1; i >= 1; i-- {
			t.nodes[i] = joinDigest(t.nodes[2*i], t.nodes[2*i+1])
		}
		return t
	}
	dirty := make([]int, 0, len(t.sbuckets))
	for b, es := range t.sbuckets {
		sortBucket(es)
		dirty = append(dirty, int(b))
	}
	sort.Ints(dirty)
	for _, b := range dirty {
		t.setNode((1<<depth)+b, bucketDigest(t.bucket(b)))
	}
	t.recomputeAncestors(dirty)
	return t
}

func sortBucket(es []Entry) {
	sort.Slice(es, func(a, b int) bool { return es[a].Path < es[b].Path })
}

func bucketDigest(entries []Entry) [md4.Size]byte {
	h := md4.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, e := range entries {
		h.Write([]byte(e.Path))
		h.Write([]byte{0})
		n := binary.PutUvarint(lenBuf[:], uint64(e.Len))
		h.Write(lenBuf[:n])
		h.Write(e.Sum[:])
	}
	var out [md4.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func joinDigest(left, right [md4.Size]byte) [md4.Size]byte {
	h := md4.New()
	h.Write(left[:])
	h.Write(right[:])
	var out [md4.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// emptyNodes[h] is the digest of a complete subtree of height h containing
// no entries: the anchor that lets a sparse tree answer for any node it
// never stored. Computed once; identical across depths because the digest
// of an empty bucket doesn't depend on where it sits.
var (
	emptyOnce  sync.Once
	emptyNodes [MaxDepth + 1][md4.Size]byte
)

func emptyNode(height int) [md4.Size]byte {
	emptyOnce.Do(func() {
		emptyNodes[0] = bucketDigest(nil)
		for h := 1; h <= MaxDepth; h++ {
			emptyNodes[h] = joinDigest(emptyNodes[h-1], emptyNodes[h-1])
		}
	})
	return emptyNodes[height]
}

// height reports the subtree height below node id (0 for leaves).
func (t *Tree) height(id int) int {
	return t.depth - (bits.Len(uint(id)) - 1)
}

func (t *Tree) node(id int) [md4.Size]byte {
	if t.nodes != nil {
		return t.nodes[id]
	}
	if d, ok := t.snodes[int32(id)]; ok {
		return d
	}
	return emptyNode(t.height(id))
}

// setNode stores a digest; in the sparse layout a digest equal to the
// empty-subtree anchor is represented by absence, keeping the map canonical
// (two trees with equal content have equal maps).
func (t *Tree) setNode(id int, d [md4.Size]byte) {
	if t.nodes != nil {
		t.nodes[id] = d
		return
	}
	if d == emptyNode(t.height(id)) {
		delete(t.snodes, int32(id))
		return
	}
	t.snodes[int32(id)] = d
}

func (t *Tree) bucket(i int) []Entry {
	if t.buckets != nil {
		return t.buckets[i]
	}
	return t.sbuckets[int32(i)]
}

func (t *Tree) setBucket(i int, es []Entry) {
	if t.buckets != nil {
		t.buckets[i] = es
		return
	}
	if len(es) == 0 {
		delete(t.sbuckets, int32(i))
		return
	}
	t.sbuckets[int32(i)] = es
}

// Root returns the root digest.
func (t *Tree) Root() [md4.Size]byte { return t.node(1) }

// Diff reports the exact difference between the initiator's entries and the
// responder's, as discovered by a completed reconciliation.
type Diff struct {
	// Changed lists responder entries whose path exists on both sides with
	// different content (length or hash).
	Changed []Entry
	// OnlyRemote lists responder entries whose path the initiator lacks.
	OnlyRemote []Entry
	// OnlyLocal lists initiator paths the responder lacks.
	OnlyLocal []string
}

// Total reports the number of differing paths.
func (d *Diff) Total() int { return len(d.Changed) + len(d.OnlyRemote) + len(d.OnlyLocal) }

// Initiator drives reconciliation against a remote Responder.
type Initiator struct {
	t        *Tree
	frontier []int32 // node IDs whose subtrees are in dispute, awaiting expansion
	started  bool
	done     bool
	diff     Diff

	// Speculative must be set (before the first Absorb) iff the responder
	// confirmed it will answer internal nodes with multi-level digest
	// blocks. The request messages are unchanged either way.
	Speculative bool
}

// NewInitiator starts a reconciliation for the local tree.
func NewInitiator(t *Tree) *Initiator { return &Initiator{t: t} }

// Done reports whether reconciliation has finished.
func (ini *Initiator) Done() bool { return ini.done }

// Diff returns the discovered difference (valid once Done).
func (ini *Initiator) Diff() *Diff { return &ini.diff }

// Next builds the next initiator→responder message.
func (ini *Initiator) Next() []byte {
	b := wire.NewBuffer(64)
	if !ini.started {
		ini.started = true
		b.Uvarint(uint64(ini.t.depth))
		root := ini.t.Root()
		b.Raw(root[:])
		return b.Build()
	}
	b.Uvarint(uint64(len(ini.frontier)))
	for _, id := range ini.frontier {
		b.Uvarint(uint64(id))
	}
	return b.Build()
}

// Absorb processes a responder→initiator message. The responder answers the
// previous message's nodes in order: for the first message the single root,
// afterwards each requested node. Internal nodes come back as two child
// digests (or a multi-level digest block under speculative descent); leaves
// as full bucket contents.
func (ini *Initiator) Absorb(payload []byte) error {
	p := wire.NewParser(payload)
	var asked []int32
	if len(ini.frontier) == 0 {
		// Response to the root announcement.
		eq, err := p.Bool()
		if err != nil {
			return err
		}
		if eq {
			ini.done = true
			return nil
		}
		asked = []int32{1}
	} else {
		asked = ini.frontier
	}
	ini.frontier = nil
	for _, id := range asked {
		if err := ini.absorbNode(p, int(id)); err != nil {
			return err
		}
	}
	if len(ini.frontier) == 0 {
		ini.done = true
	}
	return nil
}

// absorbNode processes the responder's answer for one disputed node.
func (ini *Initiator) absorbNode(p *wire.Parser, id int) error {
	if id >= 1<<ini.t.depth { // leaf: bucket contents follow
		remote, err := filelist.Parse(p)
		if err != nil {
			return err
		}
		ini.compareBucket(id-(1<<ini.t.depth), remote)
		return nil
	}
	if ini.Speculative {
		return ini.absorbNodeSpec(p, id)
	}
	var remote [2][md4.Size]byte
	for c := 0; c < 2; c++ {
		raw, err := p.Raw(md4.Size)
		if err != nil {
			return err
		}
		copy(remote[c][:], raw)
	}
	for c := 0; c < 2; c++ {
		child := 2*id + c
		if ini.t.node(child) != remote[c] {
			ini.frontier = append(ini.frontier, int32(child))
		}
	}
	return nil
}

// absorbNodeSpec processes a speculative answer: a level count, then every
// descendant digest down to that relative level in heap order. Dispute is
// tracked level by level — a node is disputed iff its parent is and its
// digest differs locally — and only the deepest level's survivors join the
// frontier. All advertised digests are consumed even once the dispute set
// empties, keeping the stream aligned.
func (ini *Initiator) absorbNodeSpec(p *wire.Parser, id int) error {
	lv, err := p.Uvarint()
	if err != nil {
		return err
	}
	if lv < 1 || int(lv) > ini.t.height(id) {
		return fmt.Errorf("merkle: speculative depth %d out of range for node %d", lv, id)
	}
	disputed := map[int]bool{id: true}
	var deepest []int
	for l := 1; l <= int(lv); l++ {
		base := id << uint(l)
		next := make(map[int]bool)
		deepest = deepest[:0]
		for j := 0; j < 1<<uint(l); j++ {
			raw, err := p.Raw(md4.Size)
			if err != nil {
				return err
			}
			child := base + j
			if !disputed[child>>1] {
				continue
			}
			var d [md4.Size]byte
			copy(d[:], raw)
			if ini.t.node(child) != d {
				next[child] = true
				deepest = append(deepest, child)
			}
		}
		disputed = next
	}
	for _, child := range deepest {
		ini.frontier = append(ini.frontier, int32(child))
	}
	return nil
}

// compareBucket merges a remote bucket against the local one.
func (ini *Initiator) compareBucket(bucket int, remote []Entry) {
	for _, ch := range filelist.Diff(ini.t.bucket(bucket), remote) {
		switch ch.Op {
		case filelist.OpDelete:
			ini.diff.OnlyLocal = append(ini.diff.OnlyLocal, ch.Old.Path)
		case filelist.OpAdd:
			ini.diff.OnlyRemote = append(ini.diff.OnlyRemote, ch.New)
		default:
			ini.diff.Changed = append(ini.diff.Changed, ch.New)
		}
	}
}

// Responder answers reconciliation queries from its local tree.
type Responder struct {
	t       *Tree
	entries []Entry
	cache   *TreeCache
	started bool

	// Speculative makes internal-node answers carry several levels of
	// descendant digests (see specLevelsFor). Only set it when the
	// initiator negotiated the capability: the answer encoding changes.
	Speculative bool
}

// NewResponder creates a responder over the given entries. The tree is
// built lazily at the announced depth so both sides always agree.
func NewResponder(entries []Entry) *Responder {
	return &Responder{entries: entries}
}

// NewResponderCached creates a per-session responder whose tree comes from
// the shared cache. Responders themselves are stateful and single-session;
// only the built trees are shared.
func NewResponderCached(tc *TreeCache) *Responder {
	return &Responder{entries: tc.entries, cache: tc}
}

// Speculative-descent sizing: how many extra levels of descendant digests
// an internal-node answer includes. Deeper when the dispute set is small,
// so a reply stays near specDigestBudget digests (~8 KB) — about the size
// of one legacy round's worth of bucket payloads.
const (
	specMaxLevels    = 3
	specDigestBudget = 512
)

// specLevelsFor picks the per-node speculation depth when m internal nodes
// are in dispute. A node expanded to lv levels costs 2^(lv+1)-2 digests.
func specLevelsFor(m int) int {
	lv := 1
	for lv < specMaxLevels && m*((4<<uint(lv))-2) <= specDigestBudget {
		lv++
	}
	return lv
}

// Respond handles one initiator message.
func (r *Responder) Respond(payload []byte) ([]byte, error) {
	p := wire.NewParser(payload)
	out := wire.NewBuffer(256)
	if !r.started {
		r.started = true
		depth, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if depth > MaxDepth {
			return nil, fmt.Errorf("merkle: depth %d too large", depth)
		}
		raw, err := p.Raw(md4.Size)
		if err != nil {
			return nil, err
		}
		if r.cache != nil {
			r.t = r.cache.Tree(int(depth))
		} else {
			r.t = Build(r.entries, int(depth))
		}
		var root [md4.Size]byte
		copy(root[:], raw)
		if root == r.t.Root() {
			out.Bool(true)
			return out.Build(), nil
		}
		out.Bool(false)
		r.answerNode(out, 1, specLevelsFor(1))
		return out.Build(), nil
	}
	n, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	// Every id costs at least one payload byte, so a count beyond the
	// remaining bytes is malformed — reject it before allocating.
	if n > uint64(p.Remaining()) {
		return nil, fmt.Errorf("merkle: node count %d exceeds payload", n)
	}
	ids := make([]int, 0, n)
	internal := 0
	for k := uint64(0); k < n; k++ {
		id, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if id < 1 || id >= uint64(2)<<uint(r.t.depth) {
			return nil, fmt.Errorf("merkle: node id %d out of range", id)
		}
		ids = append(ids, int(id))
		if id < uint64(1)<<uint(r.t.depth) {
			internal++
		}
	}
	lv := specLevelsFor(internal)
	for _, id := range ids {
		r.answerNode(out, id, lv)
	}
	return out.Build(), nil
}

// answerNode writes either child digests or, at a leaf, the bucket. Under
// speculative descent an internal node's answer is a level count followed
// by all descendant digests down to that relative level, in heap order.
func (r *Responder) answerNode(out *wire.Buffer, id, specLv int) {
	if id >= 1<<r.t.depth {
		filelist.Append(out, r.t.bucket(id-(1<<r.t.depth)))
		return
	}
	if !r.Speculative {
		l := r.t.node(2 * id)
		rt := r.t.node(2*id + 1)
		out.Raw(l[:])
		out.Raw(rt[:])
		return
	}
	if h := r.t.height(id); specLv > h {
		specLv = h
	}
	out.Uvarint(uint64(specLv))
	for l := 1; l <= specLv; l++ {
		base := id << uint(l)
		for j := 0; j < 1<<uint(l); j++ {
			d := r.t.node(base + j)
			out.Raw(d[:])
		}
	}
}

// Reconcile runs a full reconciliation locally (for tests and library use
// without a connection), returning the diff and total bytes exchanged.
func Reconcile(local, remote []Entry) (*Diff, int, error) {
	ini := NewInitiator(Build(local, DepthFor(len(local)+len(remote))))
	resp := NewResponder(remote)
	bytes := 0
	for !ini.Done() {
		msg := ini.Next()
		bytes += len(msg)
		reply, err := resp.Respond(msg)
		if err != nil {
			return nil, bytes, err
		}
		bytes += len(reply)
		if err := ini.Absorb(reply); err != nil {
			return nil, bytes, err
		}
	}
	return ini.Diff(), bytes, nil
}
