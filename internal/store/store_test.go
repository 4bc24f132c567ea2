package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/wire"
)

// manifestOf builds a sorted manifest from a file map.
// versions lists the retained version numbers in ascending order.
func versions(s *Store) []uint64 {
	var out []uint64
	for _, v := range s.versions {
		out = append(out, v.n)
	}
	return out
}

func manifestOf(files map[string][]byte) []Entry {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	m := make([]Entry, 0, len(paths))
	for _, p := range paths {
		m = append(m, Entry{Path: p, Len: len(files[p]), Sum: md4.Sum(files[p])})
	}
	return m
}

// digestOf is the test stand-in for the collection manifest digest: any
// injective fingerprint of the manifest works, the store treats it opaquely.
func digestOf(m []Entry) [md4.Size]byte {
	var b bytes.Buffer
	for _, e := range m {
		fmt.Fprintf(&b, "%s/%d/%x\n", e.Path, e.Len, e.Sum)
	}
	return md4.Sum(b.Bytes())
}

func loader(files map[string][]byte) func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		data, ok := files[path]
		if !ok {
			return nil, os.ErrNotExist
		}
		return data, nil
	}
}

func snap(t *testing.T, s *Store, files map[string][]byte) uint64 {
	t.Helper()
	m := manifestOf(files)
	v, _, err := s.Snapshot(m, digestOf(m), loader(files))
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return v
}

// applyDelta reconstructs the target tree by applying d to base files.
func applyDelta(t *testing.T, d *Delta, base map[string][]byte) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(base))
	for p, data := range base {
		out[p] = data
	}
	for k, ch := range d.Changes {
		// A change's path is its Old's or its New's, whichever is set; the
		// list is in path order.
		if k > 0 && max(ch.Old.Path, ch.New.Path) <= max(d.Changes[k-1].Old.Path, d.Changes[k-1].New.Path) {
			t.Fatalf("change %d is out of path order", k)
		}
		switch path := ch.New.Path; ch.Op {
		case filelist.OpDelete:
			delete(out, ch.Old.Path)
		case filelist.OpAdd:
			data, err := delta.Decompress(ch.Payload)
			if err != nil {
				t.Fatalf("add %q: %v", path, err)
			}
			out[path] = data
		case filelist.OpModify:
			data, err := delta.Decode(base[path], ch.Payload)
			if err != nil {
				t.Fatalf("modify %q: %v", path, err)
			}
			if len(data) != ch.New.Len || md4.Sum(data) != ch.New.Sum {
				t.Fatalf("modify %q: reconstructed content mismatch", path)
			}
			out[path] = data
		}
	}
	return out
}

func sameTree(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for p, data := range a {
		if !bytes.Equal(b[p], data) {
			return false
		}
	}
	return true
}

func treeV(n int) map[string][]byte {
	files := map[string][]byte{
		"docs/readme.txt": []byte("read me, version tracking test"),
		"src/main.go":     bytes.Repeat([]byte("package main // filler\n"), 40),
		"src/util.go":     bytes.Repeat([]byte("func util() {}\n"), 30),
	}
	// Evolve deterministically with n: one file modified per step, one
	// added every other step, one deleted at step 3.
	for i := 1; i <= n; i++ {
		files["src/main.go"] = append(files["src/main.go"], []byte(fmt.Sprintf("// rev %d\n", i))...)
		if i%2 == 0 {
			files[fmt.Sprintf("new/file%d.txt", i)] = bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		}
		if i == 3 {
			delete(files, "docs/readme.txt")
		}
	}
	return files
}

func TestSnapshotAndDelta(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var trees []map[string][]byte
	for i := 0; i < 6; i++ {
		trees = append(trees, treeV(i))
		v := snap(t, s, trees[i])
		if v != uint64(i+1) {
			t.Fatalf("version = %d, want %d", v, i+1)
		}
	}
	if got := s.LatestVersion(); got != 6 {
		t.Fatalf("LatestVersion = %d, want 6", got)
	}

	// Idempotent re-snapshot of the same tree.
	m := manifestOf(trees[5])
	v, cut, err := s.Snapshot(m, digestOf(m), loader(trees[5]))
	if err != nil || cut || v != 6 {
		t.Fatalf("re-snapshot = (%d, %v, %v), want (6, false, nil)", v, cut, err)
	}

	// Journal delta from v-1 and v-5 both reconstruct the latest tree.
	for _, base := range []int{5, 1} {
		bm := manifestOf(trees[base-1])
		d, ok := s.Delta(uint64(base), digestOf(bm), digestOf(m))
		if !ok {
			t.Fatalf("Delta(base=%d) missed", base)
		}
		if d.Current != 6 {
			t.Fatalf("Delta.Current = %d, want 6", d.Current)
		}
		got := applyDelta(t, d, trees[base-1])
		if !sameTree(got, trees[5]) {
			t.Fatalf("delta from v%d does not reconstruct v6", base)
		}
	}

	// Same base version: empty delta.
	d, ok := s.Delta(6, digestOf(m), digestOf(m))
	if !ok || len(d.Changes) != 0 {
		t.Fatalf("self-delta = (%v, %v), want empty hit", d, ok)
	}

	// Unknown version and digest mismatches miss.
	if _, ok := s.Delta(99, digestOf(m), digestOf(m)); ok {
		t.Fatal("Delta with unknown base version should miss")
	}
	var wrong [md4.Size]byte
	if _, ok := s.Delta(5, wrong, digestOf(m)); ok {
		t.Fatal("Delta with wrong base digest should miss")
	}
	if _, ok := s.Delta(5, digestOf(manifestOf(trees[4])), wrong); ok {
		t.Fatal("Delta with stale current digest should miss")
	}
}

func TestContentDedupOnRename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big := bytes.Repeat([]byte("large shared payload "), 500)
	v1 := map[string][]byte{"a/big.bin": big}
	snap(t, s, v1)
	before := s.Stats().SegmentBytes

	// Rename: same content under a new path must not store a second blob.
	v2 := map[string][]byte{"b/big.bin": big}
	snap(t, s, v2)
	if after := s.Stats().SegmentBytes; after != before {
		t.Fatalf("rename stored new content: segment bytes %d -> %d", before, after)
	}
}

func TestReopenPreservesVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trees := []map[string][]byte{treeV(0), treeV(1), treeV(2)}
	for _, tr := range trees {
		snap(t, s, tr)
	}
	s.Close()

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := versions(s); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Versions after reopen = %v, want [1 2 3]", got)
	}
	m := manifestOf(trees[2])
	d, ok := s.Delta(1, digestOf(manifestOf(trees[0])), digestOf(m))
	if !ok {
		t.Fatal("Delta missed after reopen")
	}
	if got := applyDelta(t, d, trees[0]); !sameTree(got, trees[2]) {
		t.Fatal("delta after reopen does not reconstruct latest")
	}
}

func TestCrashPartialJournalAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trees := []map[string][]byte{treeV(0), treeV(1)}
	for _, tr := range trees {
		snap(t, s, tr)
	}
	s.Close()

	// Simulate a crash mid-append: a torn record at the journal tail.
	jpath := filepath.Join(dir, "journal")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{'m', 's', 'j', '1', 0xff, 0x00, 0x00, 0x00, 1, 2, 3})
	f.Close()

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn append: %v", err)
	}
	if got := versions(s); len(got) != 2 {
		t.Fatalf("Versions = %v, want the 2 committed ones", got)
	}
	// The store must keep working: a new snapshot lands after the valid
	// prefix and survives another reopen.
	v3 := treeV(2)
	if v := snap(t, s, v3); v != 3 {
		t.Fatalf("snapshot after recovery = v%d, want v3", v)
	}
	s.Close()
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.LatestVersion(); got != 3 {
		t.Fatalf("LatestVersion after second reopen = %d, want 3", got)
	}
}

func TestCrashCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		snap(t, s, treeV(i))
		sizes = append(sizes, s.Stats().JournalBytes)
	}
	s.Close()

	// Flip a byte inside the second record: replay must stop before it,
	// keeping only v1 — and never error.
	raw, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	raw[sizes[0]+20] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "journal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with corrupt middle record: %v", err)
	}
	defer s.Close()
	if got := versions(s); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Versions = %v, want [1]", got)
	}
	// The lost versions read as unknown -> miss, not error.
	m2 := manifestOf(treeV(1))
	if _, ok := s.Delta(2, digestOf(m2), digestOf(m2)); ok {
		t.Fatal("Delta against corrupted-away version should miss")
	}
}

func TestCrashTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trees := []map[string][]byte{treeV(0), treeV(1), treeV(2)}
	for _, tr := range trees {
		snap(t, s, tr)
	}
	s.Close()

	// Truncate the latest version's segment: the reopened store must not
	// serve v3 (it is no longer fully reconstructible).
	seg := filepath.Join(dir, segName(3))
	if err := os.Truncate(seg, 1); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with truncated segment: %v", err)
	}
	defer s.Close()
	for _, v := range versions(s) {
		if v == 3 {
			t.Fatal("truncated version still served after reopen")
		}
	}
	// Deltas touching the dropped version miss; earlier versions still work.
	m3 := manifestOf(trees[2])
	if _, ok := s.Delta(3, digestOf(m3), digestOf(m3)); ok {
		t.Fatal("Delta from truncated version should miss")
	}
	m2 := manifestOf(trees[1])
	d, ok := s.Delta(1, digestOf(manifestOf(trees[0])), digestOf(m2))
	if !ok {
		t.Fatal("Delta between intact versions should still hit")
	}
	if got := applyDelta(t, d, trees[0]); !sameTree(got, trees[1]) {
		t.Fatal("surviving delta does not reconstruct v2")
	}
}

// TestCrashMidSegmentWrite: a crash between a segment's temporary file and
// its rename leaves the temporary file and no segment. The reopened store
// serves the committed versions and removes the orphan.
func TestCrashMidSegmentWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap(t, s, treeV(0))
	s.Close()
	orphan := filepath.Join(dir, dirio.TempPrefix+"123")
	if err := os.WriteFile(orphan, []byte("half a segm"), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with an orphaned temporary file: %v", err)
	}
	defer s.Close()
	if got := versions(s); len(got) != 1 {
		t.Fatalf("Versions = %v, want the committed one", got)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("the orphaned temporary file survived Open: %v", err)
	}
}

func TestGCBudget(t *testing.T) {
	dir := t.TempDir()
	// A tiny budget forces eviction after every snapshot.
	s, err := Open(dir, Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var trees []map[string][]byte
	for i := 0; i < 4; i++ {
		trees = append(trees, treeV(i))
		snap(t, s, trees[i])
		// The latest version survives any budget.
		st := s.Stats()
		if st.Latest != uint64(i+1) {
			t.Fatalf("after snapshot %d: latest = %d", i+1, st.Latest)
		}
		if st.Versions != 1 {
			t.Fatalf("after snapshot %d: %d versions retained, want 1", i+1, st.Versions)
		}
	}
	// Evicted versions miss.
	m := manifestOf(trees[3])
	if _, ok := s.Delta(1, digestOf(manifestOf(trees[0])), digestOf(m)); ok {
		t.Fatal("Delta from GC'd version should miss")
	}
	// The latest version is still fully reconstructible from disk.
	for _, e := range manifestOf(trees[3]) {
		data, err := s.Content(e.Sum)
		if err != nil {
			t.Fatalf("Content(%s): %v", e.Path, err)
		}
		if !bytes.Equal(data, trees[3][e.Path]) {
			t.Fatalf("Content(%s) mismatch", e.Path)
		}
	}
}

func TestGCRescueKeepsSurvivorContent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A stable file introduced at v1 plus incompressible churn that grows
	// the store past the budget.
	stable := bytes.Repeat([]byte("stable content that lives in v1's segment "), 100)
	noise := func(seed uint32, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			seed = seed*1664525 + 1013904223
			out[i] = byte(seed >> 24)
		}
		return out
	}
	mk := func(rev int) map[string][]byte {
		return map[string][]byte{
			"stable.bin": stable,
			"churn.bin":  noise(uint32(rev), 3000),
		}
	}
	var trees []map[string][]byte
	for i := 0; i < 5; i++ {
		trees = append(trees, mk(i+1))
		snap(t, s, trees[i])
	}
	// Now shrink the budget and GC by snapshotting once more: dropping v1
	// must rescue stable.bin's blob, which every survivor still references.
	s.opt.Budget = 4000
	trees = append(trees, mk(6))
	snap(t, s, trees[5])

	st := s.Stats()
	if st.Versions >= 6 {
		t.Fatalf("GC retained all %d versions", st.Versions)
	}
	got, err := s.Content(md4.Sum(stable))
	if err != nil {
		t.Fatalf("rescued content unreadable: %v", err)
	}
	if !bytes.Equal(got, stable) {
		t.Fatal("rescued content mismatch")
	}
	// A journal delta from the oldest surviving version still reconstructs.
	vs := versions(s)
	base := vs[0]
	bm := manifestOf(trees[base-1])
	m := manifestOf(trees[5])
	d, ok := s.Delta(base, digestOf(bm), digestOf(m))
	if !ok {
		t.Fatalf("Delta from oldest survivor v%d missed", base)
	}
	if got := applyDelta(t, d, trees[base-1]); !sameTree(got, trees[5]) {
		t.Fatal("post-GC delta does not reconstruct latest")
	}

	// GC state survives reopen.
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Content(md4.Sum(stable)); err != nil {
		t.Fatalf("rescued content unreadable after reopen: %v", err)
	}
}

func TestGCNeverEvictsLatest(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	files := map[string][]byte{"f": bytes.Repeat([]byte("x"), 10000)}
	snap(t, s, files)
	files["f"] = bytes.Repeat([]byte("y"), 10000)
	v := snap(t, s, files)
	st := s.Stats()
	if st.Versions != 1 || st.Latest != v {
		t.Fatalf("stats = %+v, want only latest v%d retained", st, v)
	}
	if _, err := s.Content(md4.Sum(files["f"])); err != nil {
		t.Fatalf("latest content must stay readable under any budget: %v", err)
	}
}

func TestSnapshotLoadMismatchFails(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	files := map[string][]byte{"f": []byte("declared content")}
	m := manifestOf(files)
	_, _, err = s.Snapshot(m, digestOf(m), func(string) ([]byte, error) {
		return []byte("different content"), nil
	})
	if err == nil {
		t.Fatal("Snapshot with drifting content must fail")
	}
	if got := s.LatestVersion(); got != 0 {
		t.Fatalf("failed snapshot committed version %d", got)
	}
}

// TestOnDiskBytesPinned holds the bytes a store writes: the md4 of every file
// in its directory — the journal and the segments — after three fixed
// snapshots that add, modify and delete files. A change to a record's codec
// that moves one byte on disk fails here.
func TestOnDiskBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2, 3} {
		snap(t, s, treeV(n))
	}
	s.Close()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := md4.New()
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", de.Name(), len(data))
		h.Write(data)
	}
	const want = "12382d6729125744781f8d6fa15c2f6a"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("store directory md4 %s, want %s", got, want)
	}
}

// TestSnapshotRefusesUnsortedManifest: a manifest out of path order, or naming
// a path twice, is refused before a segment or a record is written — the
// journal and every Delta assume a strictly sorted list.
func TestSnapshotRefusesUnsortedManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	files := treeV(2)
	m := manifestOf(files)
	for name, bad := range map[string][]Entry{
		"descending": {m[1], m[0]},
		"duplicated": {m[0], m[1], m[1]},
	} {
		if v, _, err := s.Snapshot(bad, digestOf(bad), loader(files)); err == nil {
			t.Errorf("%s manifest committed as version %d", name, v)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if st := s.Stats(); st.Latest != 0 || st.JournalBytes != 0 || len(segs) != 0 {
		t.Fatalf("after refusals: %+v, segments %v", st, segs)
	}
}

// hostileRecords are version records of some twenty bytes that declare 2^22
// manifest entries or 2^22 blob rows.
func hostileRecords() map[string][]byte {
	header := func(entries uint64) *wire.Buffer {
		b := wire.NewBuffer(32)
		b.Byte(recVersion)
		b.Uvarint(1)
		b.Raw(make([]byte, md4.Size))
		b.Uvarint(entries)
		return b
	}
	manifest := header(1 << 22)
	rows := header(0)
	rows.Uvarint(1 << 22)
	return map[string][]byte{
		"manifest entries": manifest.Build(),
		"blob rows":        rows.Build(),
	}
}

// TestReplayBoundsCountsByRecord: a journal whose only record is CRC-valid
// but declares 2^22 manifest entries or 2^22 blob rows in some twenty bytes
// costs Open less than 1 MB, and the valid prefix ends before that record.
// (Each count was once checked against 2^30 only: 168 MB and 739 MB.)
func TestReplayBoundsCountsByRecord(t *testing.T) {
	for name, payload := range hostileRecords() {
		dir := t.TempDir()
		journal := filepath.Join(dir, "journal")
		framed := make([]byte, 12, 12+len(payload))
		copy(framed, journalMagic[:])
		putLE32(framed[4:8], uint32(len(payload)))
		putLE32(framed[8:12], crc32.ChecksumIEEE(payload))
		framed = append(framed, payload...)
		var st Stats
		got := alloctest.BytesPerOp(3, func() {
			// Open truncates the journal to its valid prefix: restore it.
			if err := os.WriteFile(journal, framed, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st = s.Stats()
			s.Close()
		})
		if got >= 1<<20 {
			t.Errorf("%s: Open allocated %d bytes for a %d-byte record", name, got, len(payload))
		}
		if st.Versions != 0 || st.JournalBytes != 0 {
			t.Errorf("%s: replay kept the record: %+v", name, st)
		}
	}
}

// TestDeltaChainBound: a file edited in every version is stored as deltas
// until its chain reaches maxChain, then whole again; past the bound every
// version still resolves.
func TestDeltaChainBound(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	files := map[string][]byte{"f": bytes.Repeat([]byte("seed content here "), 200)}
	snap(t, s, files)
	var sums [][md4.Size]byte
	for i := 0; i < 2*maxChain+2; i++ {
		files["f"] = append(files["f"], byte('0'+i))
		snap(t, s, files)
		sums = append(sums, md4.Sum(files["f"]))
	}
	for _, sum := range sums {
		if got, err := s.Content(sum); err != nil || md4.Sum(got) != sum {
			t.Fatalf("content %x unresolvable: %v", sum[:4], err)
		}
	}
	deepest := 0
	for sum, ref := range s.blobs {
		if ref.chain > maxChain {
			t.Fatalf("blob %x chain %d exceeds maxChain %d", sum[:4], ref.chain, maxChain)
		}
		deepest = max(deepest, ref.chain)
	}
	if deepest != maxChain {
		t.Fatalf("deepest chain %d: the versions never reached maxChain %d", deepest, maxChain)
	}
}

// TestOpenAllocsGrowWithVersionsNotFiles: Open checks each version's manifest
// in place and parses only the latest one, so what it allocates grows with
// the number of versions, not with versions × files. From 4 to 32 versions of
// a 2 000-file tree Open grows by about 4 KB a version; when replay parsed
// every version's manifest it grew by 208 KB a version.
func TestOpenAllocsGrowWithVersionsNotFiles(t *testing.T) {
	const files = 2000
	tree := make(map[string][]byte, files)
	for i := range files {
		tree[fmt.Sprintf("dir%02d/file%04d.txt", i%20, i)] = []byte(fmt.Sprintf("file %d, version 0\n", i))
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	openCost := func() uint64 {
		return alloctest.BytesPerOp(3, func() {
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
	var costs []uint64
	for v := 1; v <= 32; v++ {
		for i := v * 20; i < v*20+20; i++ { // 1 % churn a version
			tree[fmt.Sprintf("dir%02d/file%04d.txt", i%20, i%files)] = []byte(fmt.Sprintf("file %d, version %d\n", i, v))
		}
		snap(t, s, tree)
		if v == 4 || v == 32 {
			costs = append(costs, openCost())
		}
	}
	s.Close()
	const ceiling = 16 << 10
	if perVersion := (int64(costs[1]) - int64(costs[0])) / 28; perVersion > ceiling {
		t.Errorf("Open allocates %d B at 4 versions and %d B at 32: %d B a version, ceiling %d",
			costs[0], costs[1], perVersion, ceiling)
	}
}
