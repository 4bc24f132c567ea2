package merkle

import (
	"sort"

	"msync/internal/filelist"
)

// Update applies a manifest change set in place: upserts insert new entries
// or replace same-path ones, deletes remove paths. Only the touched buckets
// and their ancestor digests are recomputed — O(changed · depth) hashing
// instead of a full O(n) rebuild — so a repeat sync of a huge
// mostly-unchanged collection refreshes its tree from the changed-path set
// in microseconds. The result is indistinguishable from Build on the
// updated entry set.
func (t *Tree) Update(upserts []Entry, deletes []string) {
	dirty := make(map[int]bool)
	for _, e := range upserts {
		b := bucketOf(e.Path, t.depth)
		es := t.bucket(b)
		i := sort.Search(len(es), func(k int) bool { return es[k].Path >= e.Path })
		if i < len(es) && es[i].Path == e.Path {
			es[i] = e
		} else {
			es = append(es, Entry{})
			copy(es[i+1:], es[i:])
			es[i] = e
			t.count++
		}
		t.setBucket(b, es)
		dirty[b] = true
	}
	for _, p := range deletes {
		b := bucketOf(p, t.depth)
		es := t.bucket(b)
		i := sort.Search(len(es), func(k int) bool { return es[k].Path >= p })
		if i < len(es) && es[i].Path == p {
			es = append(es[:i], es[i+1:]...)
			t.setBucket(b, es)
			t.count--
			dirty[b] = true
		}
	}
	if len(dirty) == 0 {
		return
	}
	bs := make([]int, 0, len(dirty))
	for b := range dirty {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	for _, b := range bs {
		t.setNode((1<<t.depth)+b, bucketDigest(t.bucket(b)))
	}
	t.recomputeAncestors(bs)
}

// recomputeAncestors refreshes internal digests above the given (deduped)
// leaf bucket indices, level by level so shared ancestors hash once.
func (t *Tree) recomputeAncestors(buckets []int) {
	if t.depth == 0 {
		return
	}
	level := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		level[((1<<t.depth)+b)>>1] = true
	}
	for len(level) > 0 {
		next := make(map[int]bool, len(level))
		for id := range level {
			t.setNode(id, joinDigest(t.node(2*id), t.node(2*id+1)))
			if id > 1 {
				next[id>>1] = true
			}
		}
		level = next
	}
}

// changeSet splits filelist.Diff(old, new) — both sorted by path — into
// what Update takes: the entries to upsert and the paths to delete.
func changeSet(old, new []Entry) (upserts []Entry, deletes []string) {
	for _, ch := range filelist.Diff(old, new) {
		if ch.Op == filelist.OpDelete {
			deletes = append(deletes, ch.Old.Path)
		} else {
			upserts = append(upserts, ch.New)
		}
	}
	return upserts, deletes
}
