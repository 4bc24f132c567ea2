package pubsig

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"msync/internal/collection"
	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/obs"
)

func testFiles(seed int64, n, size int) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[pathFor(i)] = corpus.SourceText(rng, size)
	}
	return files
}

func pathFor(i int) string {
	return string(rune('a'+i%3)) + "/" + string(rune('a'+i/3)) + ".txt"
}

func editSome(files map[string][]byte, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 200}
	next := make(map[string][]byte, len(files))
	i := 0
	for k, v := range files {
		next[k] = v
		if i%3 == 0 {
			next[k] = em.Apply(rng, v)
		}
		i++
	}
	return next
}

// Publish snapshots a path-keyed file set held in memory as the next
// version: what PublishTree does for a directory, for tests.
func (p *Publisher) Publish(files map[string][]byte) (version uint64, created bool, err error) {
	return p.publish(collection.BuildManifest(files), func(path string) ([]byte, error) {
		data, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("pubsig: no content for %q", path)
		}
		return data, nil
	})
}

func loadManifest(t *testing.T, s ArtifactStore, version uint64) *Manifest {
	t.Helper()
	data, err := s.Get(manifestKey(version))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublishRoundTrip(t *testing.T) {
	s := NewMemStore()
	p, err := NewPublisher(s, WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	files := testFiles(1, 9, 8_000)
	v, created, err := p.Publish(files)
	if err != nil || !created || v != 1 {
		t.Fatalf("publish: v=%d created=%v err=%v", v, created, err)
	}
	m := loadManifest(t, s, 1)
	if len(m.Entries) != len(files) || m.Version != 1 || m.BlockSize != 512 {
		t.Fatalf("manifest: %+v", m)
	}
	for _, e := range m.Entries {
		want := files[e.Path]
		if e.Len != len(want) || e.Sum != md4.Sum(want) {
			t.Fatalf("entry %q does not fingerprint its file", e.Path)
		}
		blob, err := s.Get(blobKey(e.Sum))
		if err != nil || !bytes.Equal(blob, want) {
			t.Fatalf("blob for %q: %v", e.Path, err)
		}
		sig, err := s.Get(sigKey(e.Sum))
		if err != nil {
			t.Fatalf("sig for %q: %v", e.Path, err)
		}
		if plan, err := NewPlan(want, sig); err != nil || plan.FetchBytes() != 0 {
			t.Fatalf("sig for %q does not describe its content: %v", e.Path, err)
		}
	}
}

func TestPublishIdempotentAndVersioned(t *testing.T) {
	s := NewMemStore()
	p, _ := NewPublisher(s)
	files := testFiles(2, 6, 4_000)
	if v, created, err := p.Publish(files); v != 1 || !created || err != nil {
		t.Fatalf("v1: %d %v %v", v, created, err)
	}
	// Unchanged collection: same version, nothing created.
	if v, created, err := p.Publish(files); v != 1 || created || err != nil {
		t.Fatalf("re-publish unchanged: %d %v %v", v, created, err)
	}
	next := editSome(files, 3)
	if v, created, err := p.Publish(next); v != 2 || !created || err != nil {
		t.Fatalf("v2: %d %v %v", v, created, err)
	}
	if p.latest != 2 {
		t.Fatalf("latest = %d", p.latest)
	}
	// The delta artifact exists and lists exactly the changed paths.
	d, err := ComposeDelta(s, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Upserts {
		if bytes.Equal(files[e.Path], next[e.Path]) {
			t.Fatalf("delta lists unchanged path %q", e.Path)
		}
	}
	changed := 0
	for k, v := range files {
		if !bytes.Equal(v, next[k]) {
			changed++
		}
	}
	if len(d.Upserts) != changed || len(d.Deleted) != 0 {
		t.Fatalf("delta upserts=%d deleted=%d, want %d/0", len(d.Upserts), len(d.Deleted), changed)
	}
}

// TestArtifactBytesPinned holds the md4 of the psm1 manifests and the psd1
// delta a publisher writes for two fixed versions — one file modified, one
// added, one deleted — so a change to their codecs that moves a byte fails
// here.
func TestArtifactBytesPinned(t *testing.T) {
	s := NewMemStore()
	p, err := NewPublisher(s, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	v1 := map[string][]byte{
		"a.txt":      bytes.Repeat([]byte("first version of a "), 20),
		"dir/b.txt":  []byte("b stays the same"),
		"dir/gone.c": []byte("deleted in version two"),
	}
	v2 := map[string][]byte{
		"a.txt":     bytes.Repeat([]byte("second version of a "), 20),
		"dir/b.txt": v1["dir/b.txt"],
		"new.md":    []byte("added in version two"),
	}
	for _, files := range []map[string][]byte{v1, v2} {
		if _, created, err := p.Publish(files); !created || err != nil {
			t.Fatalf("publish: created %v, %v", created, err)
		}
	}
	for _, c := range []struct{ key, want string }{
		{manifestKey(1), "e504294574eb6c416fb6cb01149fcec9"},
		{manifestKey(2), "a7b9ea63fe4ada4be10eb71c6e2fab00"},
		{deltaKey(1, 2), "c583de04514e1b5830dbfd01954f7a1a"},
	} {
		data, err := s.Get(c.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", md4.Sum(data)); got != c.want {
			t.Errorf("%s: md4 %s, want %s", c.key, got, c.want)
		}
	}
}

// TestPublishDeterministicAcrossRestarts pins the acceptance criterion:
// the same collection version yields byte-identical artifacts no matter
// which publisher instance (or process lifetime) produced them.
func TestPublishDeterministicAcrossRestarts(t *testing.T) {
	files := testFiles(4, 8, 6_000)
	next := editSome(files, 5)

	build := func() ArtifactStore {
		s := NewMemStore()
		p, err := NewPublisher(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Publish(files); err != nil {
			t.Fatal(err)
		}
		// "Restart": a fresh publisher recovers state from the artifacts
		// alone and continues the version sequence.
		p2, err := NewPublisher(s)
		if err != nil {
			t.Fatal(err)
		}
		if p2.latest != 1 {
			t.Fatalf("recovered latest = %d", p2.latest)
		}
		if v, created, err := p2.Publish(next); v != 2 || !created || err != nil {
			t.Fatalf("post-restart publish: %d %v %v", v, created, err)
		}
		return s
	}

	a, b := build(), build()
	keysA, _ := a.Keys("")
	keysB, _ := b.Keys("")
	if !reflect.DeepEqual(keysA, keysB) {
		t.Fatalf("key sets differ:\n%v\n%v", keysA, keysB)
	}
	if len(keysA) == 0 {
		t.Fatal("no artifacts")
	}
	for _, k := range keysA {
		da, _ := a.Get(k)
		db, _ := b.Get(k)
		if !bytes.Equal(da, db) {
			t.Fatalf("artifact %s differs between publisher lifetimes", k)
		}
	}
}

func TestPublisherRejectsBlockSizeDrift(t *testing.T) {
	s := NewMemStore()
	p, _ := NewPublisher(s, WithBlockSize(512))
	if _, _, err := p.Publish(testFiles(6, 3, 2_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPublisher(s, WithBlockSize(1024)); err == nil {
		t.Fatal("block-size drift accepted")
	}
	if _, err := NewPublisher(s, WithBlockSize(512)); err != nil {
		t.Fatalf("same block size refused: %v", err)
	}
}

func TestPublishDeletionsAndComposedDeltas(t *testing.T) {
	s := NewMemStore()
	p, _ := NewPublisher(s)
	files := testFiles(7, 6, 3_000)
	if _, _, err := p.Publish(files); err != nil {
		t.Fatal(err)
	}
	v2 := editSome(files, 8)
	var dropped string
	for k := range v2 {
		dropped = k
		break
	}
	delete(v2, dropped)
	if _, _, err := p.Publish(v2); err != nil {
		t.Fatal(err)
	}
	v3 := make(map[string][]byte, len(v2)+1)
	for k, v := range v2 {
		v3[k] = v
	}
	v3["brand/new.txt"] = []byte("fresh content")
	if _, _, err := p.Publish(v3); err != nil {
		t.Fatal(err)
	}

	// Composed 1→3 delta must equal the direct manifest diff.
	d, err := ComposeDelta(s, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, path := range d.Deleted {
		if path == dropped {
			found = true
		}
		if _, stillThere := v3[path]; stillThere {
			t.Fatalf("delta deletes surviving path %q", path)
		}
	}
	if !found {
		t.Fatalf("composed delta misses deletion of %q (deleted: %v)", dropped, d.Deleted)
	}
	gotNew := false
	for _, e := range d.Upserts {
		if !bytes.Equal(v3[e.Path], nil) && e.Sum != md4.Sum(v3[e.Path]) {
			t.Fatalf("upsert %q has stale fingerprint", e.Path)
		}
		if e.Path == "brand/new.txt" {
			gotNew = true
		}
	}
	if !gotNew {
		t.Fatal("composed delta misses the added file")
	}
	// A re-added path must not linger in Deleted.
	for _, path := range d.Deleted {
		for _, e := range d.Upserts {
			if e.Path == path {
				t.Fatalf("path %q both deleted and upserted", path)
			}
		}
	}
}

func TestManifestAndDeltaParseRejectCorruption(t *testing.T) {
	s := NewMemStore()
	p, _ := NewPublisher(s)
	files := testFiles(9, 4, 2_000)
	p.Publish(files)
	p.Publish(editSome(files, 10))

	mRaw, _ := s.Get(manifestKey(1))
	if _, err := ParseManifest(mRaw); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(mRaw); cut += 7 {
		if _, err := ParseManifest(mRaw[:cut]); err == nil {
			t.Fatalf("truncated manifest (cut %d) accepted", cut)
		}
	}
	if _, err := ParseManifest(append(append([]byte(nil), mRaw...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	flipped := append([]byte(nil), mRaw...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := ParseManifest(flipped); err == nil {
		t.Fatal("digest-breaking flip accepted")
	}

	dRaw, _ := s.Get(deltaKey(1, 2))
	if _, err := ParseDelta(dRaw); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(dRaw); cut += 7 {
		if _, err := ParseDelta(dRaw[:cut]); err == nil {
			t.Fatalf("truncated delta (cut %d) accepted", cut)
		}
	}
	if _, err := ParseDelta(mRaw); err == nil {
		t.Fatal("manifest parsed as delta")
	}
}

func TestPublisherMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p, _ := NewPublisher(NewMemStore(), WithPublisherMetrics(reg))
	files := testFiles(11, 5, 3_000)
	if _, _, err := p.Publish(files); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pubsig_publish_versions").Value(); got != 1 {
		t.Fatalf("versions counter = %d", got)
	}
	if reg.Counter("pubsig_publish_bytes_hashed").Value() == 0 {
		t.Fatal("no hashing accounted")
	}
	// Publishing the identical collection again must cost no hashing.
	before := reg.Counter("pubsig_publish_bytes_hashed").Value()
	if _, created, _ := p.Publish(files); created {
		t.Fatal("identical publish created a version")
	}
	if got := reg.Counter("pubsig_publish_bytes_hashed").Value(); got != before {
		t.Fatalf("identical publish hashed %d extra bytes", got-before)
	}
}
