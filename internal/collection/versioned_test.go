package collection

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/sigcache"
	"msync/internal/stats"
	"msync/internal/store"
	"msync/internal/transport"
)

// versionedTrees builds two collection versions exercising every journal op:
// an unchanged file, a modified file large enough to matter, a deleted file
// and a new file.
func versionedTrees() (v1, v2 map[string][]byte) {
	keep := bytes.Repeat([]byte("unchanged content stays put. "), 50)
	oldMod := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 120)
	newMod := append(append([]byte{}, oldMod[:2000]...), oldMod[2500:]...)
	newMod = append(newMod, []byte("fresh trailing edit for version two")...)
	v1 = map[string][]byte{
		"keep.txt": keep,
		"mod.txt":  oldMod,
		"gone.txt": []byte("this file is deleted in v2"),
	}
	v2 = map[string][]byte{
		"keep.txt": keep,
		"mod.txt":  newMod,
		"new.txt":  bytes.Repeat([]byte("a brand new file "), 30),
	}
	return v1, v2
}

// versionedServer builds a store-backed server holding tree2 with tree1 and
// tree2 snapshotted as versions 1 and 2.
func versionedServer(t *testing.T, tree1, tree2 map[string][]byte, cfg core.Config) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := NewServerSource(NewStoreSource(MapSource(tree1), st), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := srv.Snapshot(); err != nil || v != 1 {
		t.Fatalf("snapshot v1 = (%d, %v)", v, err)
	}
	// Push-adoption path doubles as the collection swap: the StoreSource
	// wrapper must survive it.
	srv.setFiles(tree2)
	if v, err := srv.Snapshot(); err != nil || v != 2 {
		t.Fatalf("snapshot v2 = (%d, %v)", v, err)
	}
	return srv
}

// runVersioned syncs cli against srv over a pipe and returns the client
// result and server costs.
func runVersioned(t *testing.T, srv *Server, cli *Client) (*Result, *stats.Costs) {
	t.Helper()
	a, b := transport.Pipe()
	var serverCosts *stats.Costs
	var serverErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.Serve(a)
	}()
	res, err := cli.Sync(b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	return res, serverCosts
}

// TestJournalFastPath: an announcing client at a known version receives the
// precomputed journal delta — no map-construction rounds — and converges to
// exactly the tree a cold full sync produces, at workers 1 and 8.
func TestJournalFastPath(t *testing.T) {
	tree1, tree2 := versionedTrees()
	cold, _ := runSession(t, tree2, tree1, core.DefaultConfig())
	if err := VerifyAgainst(cold.Files, tree2); err != nil {
		t.Fatalf("cold sync: %v", err)
	}
	for _, workers := range []int{1, 8} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		srv := versionedServer(t, tree1, tree2, cfg)

		cli := NewClient(tree1)
		cli.Workers = workers
		cli.AnnounceVersion = true
		cli.BaseVersion = 1
		res, serverCosts := runVersioned(t, srv, cli)

		if serverCosts.JournalHits != 1 || serverCosts.JournalMisses != 0 {
			t.Fatalf("workers=%d: journal hits/misses = %d/%d, want 1/0",
				workers, serverCosts.JournalHits, serverCosts.JournalMisses)
		}
		if serverCosts.FilesJournal == 0 {
			t.Fatalf("workers=%d: no journal files counted", workers)
		}
		if got := serverCosts.Bytes(stats.S2C, stats.PhaseMap) + serverCosts.Bytes(stats.C2S, stats.PhaseMap); got != 0 {
			t.Fatalf("workers=%d: journal session spent %d map bytes", workers, got)
		}
		if res.Version != 2 {
			t.Fatalf("workers=%d: result version = %d, want 2", workers, res.Version)
		}
		if err := VerifyAgainst(res.Files, tree2); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Byte-identical convergence with the cold full sync.
		for path, want := range cold.Files {
			if !bytes.Equal(res.Files[path], want) {
				t.Fatalf("workers=%d: %q differs from cold sync result", workers, path)
			}
		}
		if len(res.Files) != len(cold.Files) {
			t.Fatalf("workers=%d: file count %d vs cold %d", workers, len(res.Files), len(cold.Files))
		}
		// Both sides account the same totals on the journal path too.
		if res.Costs.Total() != serverCosts.Total() {
			t.Fatalf("workers=%d: cost totals disagree: %d vs %d",
				workers, res.Costs.Total(), serverCosts.Total())
		}
	}
}

// TestJournalUnknownVersionFallsBack: an unknown (or GC'd) announced version
// runs the full protocol and still teaches the client the current version.
func TestJournalUnknownVersionFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	cli := NewClient(tree1)
	cli.AnnounceVersion = true
	cli.BaseVersion = 99
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 0 || serverCosts.JournalMisses != 1 {
		t.Fatalf("journal hits/misses = %d/%d, want 0/1", serverCosts.JournalHits, serverCosts.JournalMisses)
	}
	if serverCosts.FilesJournal != 0 {
		t.Fatal("fallback session must not use journal verdicts")
	}
	if res.Version != 2 {
		t.Fatalf("fallback must still report the current version, got %d", res.Version)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDriftedManifestFallsBack: announcing a stored version while
// holding different content (digest mismatch) must miss, not desynchronize.
func TestJournalDriftedManifestFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	drifted := map[string][]byte{}
	for p, d := range tree1 {
		drifted[p] = d
	}
	drifted["mod.txt"] = []byte("locally drifted content, not what v1 recorded")
	cli := NewClient(drifted)
	cli.AnnounceVersion = true
	cli.BaseVersion = 1
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalMisses != 1 {
		t.Fatalf("drifted manifest should miss, got %d misses", serverCosts.JournalMisses)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}

// recordWriter wraps a pipe end, recording every byte written (the
// server-to-client stream) for wire-identity comparisons.
type recordWriter struct {
	*transport.PipeEnd
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordWriter) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf.Write(p)
	r.mu.Unlock()
	return r.PipeEnd.Write(p)
}

func (r *recordWriter) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

// serveRecorded runs one sync against srv, recording the server's output.
func serveRecorded(t *testing.T, srv *Server, cli *Client) ([]byte, *Result) {
	t.Helper()
	a, b := transport.Pipe()
	rec := &recordWriter{PipeEnd: a}
	var serverErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, serverErr = srv.Serve(rec)
	}()
	res, err := cli.Sync(b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	return rec.bytes(), res
}

// TestVersionedServerWireIdentityWithoutAnnouncement: when the client does
// not announce, a store-backed server's output stream is byte-identical to a
// plain server's — the versioned path changes nothing unless asked for.
func TestVersionedServerWireIdentityWithoutAnnouncement(t *testing.T) {
	tree1, tree2 := versionedTrees()
	cfg := core.DefaultConfig()

	plain, err := NewServer(tree2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainStream, plainRes := serveRecorded(t, plain, NewClient(tree1))

	versioned := versionedServer(t, tree1, tree2, cfg)
	vstream, vres := serveRecorded(t, versioned, NewClient(tree1))

	if !bytes.Equal(plainStream, vstream) {
		t.Fatalf("server streams differ without announcement: %d vs %d bytes",
			len(plainStream), len(vstream))
	}
	if plainRes.Version != 0 || vres.Version != 0 {
		t.Fatal("non-announcing clients must not receive a version")
	}
}

// corruptVersioned is a VersionedSource whose modify payloads are garbage:
// the client-side verification must fail and fall back to whole files from
// VersionContent, converging anyway. Adds and deletes stay valid.
type corruptVersioned struct {
	MapSource
	base   map[string][]byte
	target map[string][]byte
}

func (c *corruptVersioned) CurrentVersion() uint64    { return 2 }
func (c *corruptVersioned) Snapshot() (uint64, error) { return 2, nil }

func (c *corruptVersioned) VersionDelta(base uint64, baseDigest, currentDigest [md4.Size]byte) (*store.Delta, bool) {
	d := &store.Delta{Base: base, Current: 2, Changes: map[string]*store.Change{}}
	for path, data := range c.target {
		old, held := c.base[path]
		switch {
		case held && bytes.Equal(old, data):
			continue
		case held:
			d.Changes[path] = &store.Change{
				Op:      store.OpModify,
				Len:     len(data),
				Sum:     md4.Sum(data),
				Payload: []byte("definitely not a valid delta stream"),
			}
		default:
			d.Changes[path] = &store.Change{
				Op:      store.OpAdd,
				Len:     len(data),
				Sum:     md4.Sum(data),
				Payload: delta.Compress(data),
			}
			d.Added = append(d.Added, path)
		}
	}
	for path := range c.base {
		if _, held := c.target[path]; !held {
			d.Changes[path] = &store.Change{Op: store.OpDelete}
		}
	}
	sort.Strings(d.Added)
	return d, true
}

func (c *corruptVersioned) VersionContent(sum [md4.Size]byte) ([]byte, error) {
	for _, data := range c.target {
		if md4.Sum(data) == sum {
			return data, nil
		}
	}
	return nil, store.ErrUnknownContent
}

func (c *corruptVersioned) Signature(string) *sigcache.Sig { return nil }

// TestJournalCorruptPayloadFallsBackToFull: a journal payload that fails to
// apply is acked like a failed engine and answered with the whole file.
func TestJournalCorruptPayloadFallsBackToFull(t *testing.T) {
	tree1, tree2 := versionedTrees()
	// Serve tree2's content but with corrupt delta payloads. The client
	// holds tree1 (mod.txt differs; gone.txt and new.txt churn too).
	src := &corruptVersioned{MapSource: MapSource(tree2), base: tree1, target: tree2}
	srv, err := NewServerSource(src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tree1)
	cli.AnnounceVersion = true
	cli.BaseVersion = 1
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 1 {
		t.Fatalf("journal hits = %d, want 1", serverCosts.JournalHits)
	}
	if res.Costs.FilesFull == 0 {
		t.Fatal("corrupt journal payloads must fall back to full transfers")
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}

// TestAnnounceAgainstPlainServer: announcing to a server without a store is
// harmless — the session runs the normal protocol, Version stays 0.
func TestAnnounceAgainstPlainServer(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv, err := NewServer(tree2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tree1)
	cli.AnnounceVersion = true
	cli.BaseVersion = 7
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 0 || serverCosts.JournalMisses != 0 {
		t.Fatal("plain server must not count journal outcomes")
	}
	if res.Version != 0 {
		t.Fatalf("plain server reported version %d", res.Version)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}

// TestAnnounceTreeMode: the version extension is ignored in tree mode.
func TestAnnounceTreeMode(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	cli := NewClient(tree1)
	cli.TreeManifest = true
	cli.AnnounceVersion = true
	cli.BaseVersion = 1
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 0 {
		t.Fatal("tree mode must not take the journal path")
	}
	if res.Version != 0 {
		t.Fatalf("tree mode reported version %d", res.Version)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}

// TestJournalEmptyDelta: announcing the current version yields an empty
// journal session — everything unchanged, nothing transferred but control.
func TestJournalEmptyDelta(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	cli := NewClient(tree2)
	cli.AnnounceVersion = true
	cli.BaseVersion = 2
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 1 {
		t.Fatalf("journal hits = %d, want 1", serverCosts.JournalHits)
	}
	if got := res.Costs.PhaseTotal(stats.PhaseFull); got != 0 {
		t.Fatalf("empty delta session transferred %d full-file bytes", got)
	}
	// Only the empty FrameDelta frame (its zero count byte) may land in the
	// delta phase; actual payload would be far larger.
	if got := res.Costs.PhaseTotal(stats.PhaseDelta); got > 4 {
		t.Fatalf("empty delta session transferred %d delta bytes", got)
	}
	if serverCosts.FilesJournal != 0 || res.Costs.FilesSynced != 0 {
		t.Fatal("empty delta session must not transfer any files")
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
}
