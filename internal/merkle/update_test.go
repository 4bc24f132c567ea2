package merkle

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// applyDiff mirrors Update on a plain entry slice, as the oracle.
func applyDiff(entries []Entry, ups []Entry, dels []string) []Entry {
	m := make(map[string]Entry, len(entries))
	for _, e := range entries {
		m[e.Path] = e
	}
	for _, e := range ups {
		m[e.Path] = e
	}
	for _, p := range dels {
		delete(m, p)
	}
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	return out
}

// TestUpdateMatchesBuild: incremental update must be indistinguishable from
// a fresh build of the updated set — same root, same count, same entries.
func TestUpdateMatchesBuild(t *testing.T) {
	for _, depth := range []int{0, 3, 8} {
		rng := rand.New(rand.NewSource(int64(depth) + 11))
		entries := makeEntries(rng, 300)
		tr := Build(entries, depth)
		for round := 0; round < 5; round++ {
			var ups []Entry
			var dels []string
			for i := 0; i < 20; i++ {
				switch rng.Intn(3) {
				case 0: // edit an existing path
					e := entries[rng.Intn(len(entries))]
					ups = append(ups, entry(e.Path, fmt.Sprintf("edit-%d-%d", round, i)))
				case 1: // brand-new path
					ups = append(ups, entry(fmt.Sprintf("new/r%d/f%d", round, i), "fresh"))
				case 2:
					dels = append(dels, entries[rng.Intn(len(entries))].Path)
				}
			}
			tr.Update(ups, dels)
			entries = applyDiff(entries, ups, dels)
			want := Build(entries, depth)
			if tr.Root() != want.Root() {
				t.Fatalf("depth %d round %d: update root != build root", depth, round)
			}
			if tr.count != want.count || tr.count != len(entries) {
				t.Fatalf("depth %d round %d: count %d want %d", depth, round, tr.count, len(entries))
			}
		}
	}
}

// TestUpdateRedundantOps: upserting an identical entry or deleting a
// missing path must not corrupt digests.
func TestUpdateRedundantOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := makeEntries(rng, 64)
	tr := Build(entries, 4)
	want := tr.Root()
	tr.Update([]Entry{entries[7]}, []string{"no/such/path"})
	if tr.Root() != want {
		t.Fatal("no-op update changed the root")
	}
	if tr.count != len(entries) {
		t.Fatalf("count drifted to %d", tr.count)
	}
}

// forceSparse runs fn with the dense/sparse switch lowered so every depth
// uses the sparse layout.
func forceSparse(fn func()) {
	old := denseLimit
	denseLimit = -1
	defer func() { denseLimit = old }()
	fn()
}

// TestSparseDenseEquivalent: both layouts must produce identical digests
// and identical reconciliation wire bytes at the same depth.
func TestSparseDenseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	local := makeEntries(rng, 400)
	remote := append([]Entry(nil), local...)
	remote[17] = entry(remote[17].Path, "CHANGED")
	remote = append(remote, entry("extra/file", "added"))

	dense := Build(remote, 6)
	var sparse *Tree
	forceSparse(func() { sparse = Build(remote, 6) })
	if dense.Root() != sparse.Root() {
		t.Fatal("sparse root differs from dense")
	}
	for id := 1; id < 2<<6; id++ {
		if dense.node(id) != sparse.node(id) {
			t.Fatalf("node %d differs between layouts", id)
		}
	}

	// Full exchanges against each layout must be byte-identical.
	transcript := func(resp *Responder) []byte {
		ini := NewInitiator(Build(local, 6))
		var all []byte
		for !ini.Done() {
			reply, err := resp.Respond(ini.Next())
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, reply...)
			if err := ini.Absorb(reply); err != nil {
				t.Fatal(err)
			}
		}
		return all
	}
	a := transcript(&Responder{t: dense})
	b := transcript(&Responder{t: sparse})
	if string(a) != string(b) {
		t.Fatal("sparse and dense responders produced different transcripts")
	}
}

// TestSparseUpdateMatchesBuild: incremental update on the sparse layout.
func TestSparseUpdateMatchesBuild(t *testing.T) {
	forceSparse(func() {
		rng := rand.New(rand.NewSource(41))
		entries := makeEntries(rng, 200)
		tr := Build(entries, 10)
		ups := []Entry{entry("a/new", "x"), entry(entries[3].Path, "edited")}
		dels := []string{entries[9].Path, entries[10].Path}
		tr.Update(ups, dels)
		entries = applyDiff(entries, ups, dels)
		if want := Build(entries, 10); tr.Root() != want.Root() {
			t.Fatal("sparse update root != build root")
		}
	})
}

// TestDeepSparseReconcile: the raised MaxDepth must be usable end to end —
// a depth-28 tree (268M buckets) over a modest entry set reconciles in
// O(changed · depth) without materializing the trie. This is the large-n
// audit for the old MaxDepth=20 cap: DepthFor now keeps buckets ~4 entries
// out to a billion files instead of saturating at 2^20 buckets.
func TestDeepSparseReconcile(t *testing.T) {
	if MaxDepth <= denseLimit {
		t.Fatalf("MaxDepth %d must exceed denseLimit %d", MaxDepth, denseLimit)
	}
	// DepthFor must climb past the old 2^20 cap for huge n…
	if d := DepthFor(1 << 30); d != MaxDepth {
		t.Fatalf("DepthFor(2^30) = %d, want %d", d, MaxDepth)
	}
	if d := DepthFor(100 << 20); d <= 20 {
		t.Fatalf("DepthFor(100M) = %d, still at the old cap", d)
	}
	rng := rand.New(rand.NewSource(51))
	local := makeEntries(rng, 2000)
	remote := append([]Entry(nil), local...)
	remote[100] = entry(remote[100].Path, "v2")
	remote[1500] = entry(remote[1500].Path, "v2")

	ini := NewInitiator(Build(local, MaxDepth))
	resp := NewResponder(remote)
	bytes := 0
	for !ini.Done() {
		msg := ini.Next()
		bytes += len(msg)
		reply, err := resp.Respond(msg)
		if err != nil {
			t.Fatal(err)
		}
		bytes += len(reply)
		if err := ini.Absorb(reply); err != nil {
			t.Fatal(err)
		}
	}
	d := ini.Diff()
	if len(d.Changed) != 2 || len(d.OnlyLocal) != 0 || len(d.OnlyRemote) != 0 {
		t.Fatalf("diff = %+v", d)
	}
	// 2 changes at depth 28: ~2 disputed paths × 28 levels × 2 digests.
	if bytes > 32*1024 {
		t.Fatalf("depth-%d reconcile cost %d bytes", MaxDepth, bytes)
	}
	t.Logf("2 changes among 2000 files at depth %d: %d bytes", MaxDepth, bytes)
}

// countingResponder tallies roundtrips for speculative-vs-legacy descent.
func runDescent(t *testing.T, local, remote []Entry, depth int, spec bool) (*Diff, int, int) {
	t.Helper()
	ini := NewInitiator(Build(local, depth))
	resp := NewResponder(remote)
	ini.Speculative = spec
	resp.Speculative = spec
	rounds, bytes := 0, 0
	for !ini.Done() {
		msg := ini.Next()
		reply, err := resp.Respond(msg)
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		bytes += len(msg) + len(reply)
		if err := ini.Absorb(reply); err != nil {
			t.Fatal(err)
		}
	}
	return ini.Diff(), rounds, bytes
}

// TestSpeculativeSameDiff: speculative descent must discover exactly the
// diff legacy descent does, in strictly fewer roundtrips on a deep tree.
func TestSpeculativeSameDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	local := makeEntries(rng, 4000)
	remote := append([]Entry(nil), local...)
	for i := 0; i < 8; i++ {
		k := rng.Intn(len(remote))
		remote[k] = entry(remote[k].Path, fmt.Sprintf("spec-%d", i))
	}
	remote = append(remote, entry("brand/new", "n"))

	depth := DepthFor(len(local))
	legacy, legacyRounds, _ := runDescent(t, local, remote, depth, false)
	spec, specRounds, _ := runDescent(t, local, remote, depth, true)

	if legacy.Total() != spec.Total() ||
		len(legacy.Changed) != len(spec.Changed) ||
		len(legacy.OnlyRemote) != len(spec.OnlyRemote) ||
		len(legacy.OnlyLocal) != len(spec.OnlyLocal) {
		t.Fatalf("legacy diff %+v != speculative diff %+v", legacy, spec)
	}
	for i := range legacy.Changed {
		if legacy.Changed[i] != spec.Changed[i] {
			t.Fatalf("changed[%d] differs", i)
		}
	}
	if specRounds >= legacyRounds {
		t.Fatalf("speculative took %d rounds, legacy %d", specRounds, legacyRounds)
	}
	t.Logf("depth %d: legacy %d rounds, speculative %d", depth, legacyRounds, specRounds)
}

// TestSpeculativeLevelsBounded: responder speculation depth shrinks as the
// dispute set grows, keeping replies near the digest budget.
func TestSpeculativeLevelsBounded(t *testing.T) {
	if lv := specLevelsFor(1); lv != specMaxLevels {
		t.Fatalf("single dispute speculates %d levels", lv)
	}
	if lv := specLevelsFor(1000); lv != 1 {
		t.Fatalf("huge dispute set speculates %d levels", lv)
	}
	for m := 1; m < 2000; m *= 3 {
		lv := specLevelsFor(m)
		if cost := m * ((2 << uint(lv)) - 2); lv > 1 && cost > specDigestBudget {
			t.Fatalf("m=%d lv=%d costs %d digests", m, lv, cost)
		}
	}
}

func md4OfEntries(entries []Entry) (out [16]byte) {
	return bucketDigest(entries)
}

// TestTreeCacheRebase: Rebase carries built trees to a new entry set without
// rebuilding them, and a total rewrite falls back to a rebuild. A cache's
// entries are a manifest: sorted by path.
func TestTreeCacheRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sorted := func(es []Entry) []Entry {
		sort.Slice(es, func(i, j int) bool { return es[i].Path < es[j].Path })
		return es
	}
	v1 := sorted(makeEntries(rng, 600))
	depth := DepthFor(len(v1))
	tc1 := NewTreeCache(v1, md4OfEntries(v1))
	built := tc1.Tree(depth)

	// Changed entries: the built tree is updated in place, and its root
	// matches a from-scratch build.
	v2 := append([]Entry(nil), v1...)
	v2[10] = entry(v2[10].Path, "V2")
	v2 = sorted(append(v2, entry("added/one", "1")))
	tc2 := tc1.Rebase(v2, md4OfEntries(v2))
	if got := tc2.Tree(depth); got != built || got.Root() != Build(v2, depth).Root() {
		t.Fatal("rebased tree is not the built one updated to a rebuild's root")
	}

	// A total rewrite falls back to rebuilding rather than updating.
	v3 := sorted(makeEntries(rand.New(rand.NewSource(92)), 600))
	tc3 := tc2.Rebase(v3, md4OfEntries(v3))
	if got := tc3.Tree(depth); got == built || got.Root() != Build(v3, depth).Root() {
		t.Fatal("rebase-after-rewrite differs from rebuild")
	}
}
