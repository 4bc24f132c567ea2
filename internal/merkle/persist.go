package merkle

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"msync/internal/dirio"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/wire"
)

// Tree persistence: one file per depth in the signature-cache directory,
// holding the occupied leaf buckets (entries plus their leaf digest) and
// the manifest fingerprint the tree was built from. Internal digests are
// not stored — they are recomputed from the occupied leaves on load, which
// is O(occupied · depth) tiny hashes. The file is written by
// dirio.WriteCache, the best-effort cache discipline: its MD4 trailer guards
// against torn or corrupted writes, and any mismatch reads as a miss and
// removes the file, as internal/sigcache does.
//
// The file lives alongside sigcache's per-path ".sig" entries, which are
// only ever addressed by exact name — never scanned — so sharing the
// directory is safe.

const (
	treeMagic   = "MTRE"
	treeVersion = 1
)

func treeFileName(dir string, depth int) string {
	return filepath.Join(dir, fmt.Sprintf("mtree-d%02d.mt", depth))
}

// saveTree writes t to dir, tagged with the manifest fingerprint fp.
// Best-effort: persistence failures only cost a rebuild next time.
func saveTree(dir string, fp [md4.Size]byte, t *Tree) {
	b := wire.NewBuffer(4096)
	b.Raw([]byte(treeMagic))
	b.Uvarint(treeVersion)
	b.Uvarint(uint64(t.depth))
	b.Raw(fp[:])
	b.Uvarint(uint64(t.count))
	occupied := t.occupiedBuckets()
	b.Uvarint(uint64(len(occupied)))
	for _, i := range occupied {
		b.Uvarint(uint64(i))
		d := t.node((1 << t.depth) + i)
		b.Raw(d[:])
		filelist.Append(b, t.bucket(i))
	}
	_ = dirio.WriteCache(treeFileName(dir, t.depth), b.Build())
}

// loadTree reads the persisted tree for depth from dir, returning the tree
// and the fingerprint it was saved under. Any structural or checksum
// problem deletes the file and reports a miss.
func loadTree(dir string, depth int) (*Tree, [md4.Size]byte, bool) {
	var fp [md4.Size]byte
	name := treeFileName(dir, depth)
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fp, false
	}
	t, fp, err := decodeTree(data, depth)
	if err != nil {
		os.Remove(name)
		return nil, fp, false
	}
	return t, fp, true
}

func decodeTree(data []byte, depth int) (*Tree, [md4.Size]byte, error) {
	var fp [md4.Size]byte
	body, ok := dirio.Unseal(data)
	if !ok {
		return nil, fp, fmt.Errorf("merkle: tree file checksum mismatch")
	}
	p := wire.NewParser(body)
	magic, err := p.Raw(len(treeMagic))
	if err != nil || string(magic) != treeMagic {
		return nil, fp, fmt.Errorf("merkle: bad tree file magic")
	}
	ver, err := p.Uvarint()
	if err != nil || ver != treeVersion {
		return nil, fp, fmt.Errorf("merkle: tree file version %d", ver)
	}
	d, err := p.Uvarint()
	if err != nil || int(d) != depth || d > MaxDepth {
		return nil, fp, fmt.Errorf("merkle: tree file depth %d", d)
	}
	raw, err := p.Raw(md4.Size)
	if err != nil {
		return nil, fp, err
	}
	copy(fp[:], raw)
	count, err := p.Uvarint()
	if err != nil {
		return nil, fp, err
	}
	nb, err := p.Uvarint()
	if err != nil || nb > uint64(1)<<uint(depth) {
		return nil, fp, fmt.Errorf("merkle: tree file bucket count %d", nb)
	}
	t := newTree(depth)
	t.fillEmpty()
	total := 0
	occupied := make([]int, 0, nb)
	prev := -1
	for k := uint64(0); k < nb; k++ {
		idx, err := p.Uvarint()
		if err != nil {
			return nil, fp, err
		}
		if int(idx) <= prev || idx >= uint64(1)<<uint(depth) {
			return nil, fp, fmt.Errorf("merkle: tree file bucket index %d", idx)
		}
		prev = int(idx)
		dig, err := p.Raw(md4.Size)
		if err != nil {
			return nil, fp, err
		}
		es, err := filelist.Parse(p)
		if err != nil {
			return nil, fp, err
		}
		if len(es) == 0 {
			return nil, fp, fmt.Errorf("merkle: tree file empty bucket %d", idx)
		}
		t.setBucket(int(idx), es)
		t.setNode((1<<depth)+int(idx), *(*[md4.Size]byte)(dig))
		occupied = append(occupied, int(idx))
		total += len(es)
	}
	if p.Remaining() != 0 {
		return nil, fp, fmt.Errorf("merkle: tree file trailing bytes")
	}
	if total != int(count) {
		return nil, fp, fmt.Errorf("merkle: tree file entry count %d != %d", total, count)
	}
	t.count = total
	t.recomputeAncestors(occupied)
	return t, fp, nil
}

// occupiedBuckets lists the non-empty bucket indices in ascending order.
func (t *Tree) occupiedBuckets() []int {
	var out []int
	if t.buckets != nil {
		for i, b := range t.buckets {
			if len(b) > 0 {
				out = append(out, i)
			}
		}
		return out
	}
	out = make([]int, 0, len(t.sbuckets))
	for i := range t.sbuckets {
		out = append(out, int(i))
	}
	sort.Ints(out)
	return out
}

// fillEmpty seeds every dense node with the empty-subtree digest of its
// height, so a load only recomputes ancestors of occupied leaves. No-op
// for sparse trees (absence already means empty there).
func (t *Tree) fillEmpty() {
	if t.nodes == nil {
		return
	}
	for h := 0; h <= t.depth; h++ {
		d := emptyNode(h)
		lo := 1 << uint(t.depth-h)
		for id := lo; id < 2*lo; id++ {
			t.nodes[id] = d
		}
	}
}
