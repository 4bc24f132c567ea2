package collection

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/obs"
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
	return versionedServerAt(t, t.TempDir(), store.Options{}, tree1, tree2, cfg)
}

// versionedServerAt is versionedServer with the store in dir, opened with opt.
func versionedServerAt(t *testing.T, dir string, opt store.Options, tree1, tree2 map[string][]byte, cfg core.Config) *Server {
	t.Helper()
	st, err := store.Open(dir, opt)
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
	if err := srv.adopt(srv.source(), &Result{Files: tree2}); err != nil {
		t.Fatal(err)
	}
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

// manyFiles is versionedTrees grown to n files by unchanged padding, so the
// change set stays what it was while the manifest grows.
func manyFiles(n int) (v1, v2 map[string][]byte) {
	v1, v2 = versionedTrees()
	for i := len(v1); i < n; i++ {
		path, data := fmt.Sprintf("pad/%05d.txt", i), []byte(fmt.Sprintf("padding file %d\n", i))
		v1[path], v2[path] = data, data
	}
	return v1, v2
}

// TestJournalFastPath: an announcing client at a known version receives the
// precomputed journal delta — no map-construction rounds — and converges to
// exactly the tree a cold full sync produces, at workers 1 and 8. What the
// client sends does not grow with its tree: the hello, the 16-byte digest of
// its manifest and two empty per-file frames, 96 bytes at most for 50 files
// as for 2 000, in two roundtrips.
func TestJournalFastPath(t *testing.T) {
	for _, files := range []int{50, 2000} {
		tree1, tree2 := manyFiles(files)
		cold, _ := runSession(t, tree2, tree1, core.DefaultConfig())
		if err := VerifyAgainst(cold.Files, tree2); err != nil {
			t.Fatalf("cold sync: %v", err)
		}
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("files=%d workers=%d", files, workers)
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			srv := versionedServer(t, tree1, tree2, cfg)

			cli := NewClient(tree1)
			cli.Workers = workers
			cli.AnnounceVersion = true
			cli.BaseVersion = 1
			res, serverCosts := runVersioned(t, srv, cli)

			if serverCosts.JournalHits != 1 || serverCosts.JournalMisses != 0 {
				t.Fatalf("%s: journal hits/misses = %d/%d, want 1/0",
					name, serverCosts.JournalHits, serverCosts.JournalMisses)
			}
			if serverCosts.FilesJournal == 0 {
				t.Fatalf("%s: no journal files counted", name)
			}
			if got := serverCosts.Bytes(stats.S2C, stats.PhaseMap) + serverCosts.Bytes(stats.C2S, stats.PhaseMap); got != 0 {
				t.Fatalf("%s: journal session spent %d map bytes", name, got)
			}
			for side, c := range map[string]*stats.Costs{"client": res.Costs, "server": serverCosts} {
				if up := c.DirTotal(stats.C2S); up > 96 {
					t.Fatalf("%s: %s counts %d bytes client to server, want at most 96", name, side, up)
				}
				if c.Roundtrips != 2 {
					t.Fatalf("%s: %s counts %d roundtrips, want 2", name, side, c.Roundtrips)
				}
			}
			if res.Version != 2 {
				t.Fatalf("%s: result version = %d, want 2", name, res.Version)
			}
			if err := VerifyAgainst(res.Files, tree2); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Byte-identical convergence with the cold full sync.
			for path, want := range cold.Files {
				if !bytes.Equal(res.Files[path], want) {
					t.Fatalf("%s: %q differs from cold sync result", name, path)
				}
			}
			if len(res.Files) != len(cold.Files) {
				t.Fatalf("%s: file count %d vs cold %d", name, len(res.Files), len(cold.Files))
			}
			// Both sides account the same totals on the journal path too.
			if res.Costs.Total() != serverCosts.Total() {
				t.Fatalf("%s: cost totals disagree: %d vs %d",
					name, res.Costs.Total(), serverCosts.Total())
			}
		}
	}
}

// checkJournalMiss announces base, by reference, from a replica holding files
// to a server that cannot answer it from its journal. The session converges
// on want, learns version, counts one miss, logs it once with its reason, and
// costs exactly one roundtrip — the MANIFEST_WANT — more on both ends than
// the same replica announcing version 0, which sends its manifest outright.
func checkJournalMiss(t *testing.T, srv *Server, files, want map[string][]byte, base, version uint64, reason string) {
	t.Helper()
	var log bytes.Buffer
	srv.Logger = slog.New(slog.NewTextHandler(&log, nil))
	ring := obs.NewRing(64)
	srv.Tracer = ring
	cli := NewClient(files)
	cli.AnnounceVersion = true
	plain, plainServer := runVersioned(t, srv, cli)
	// Version 0 asks for the server's version: nothing fell back, nothing to log.
	if strings.Contains(log.String(), "journal miss") {
		t.Fatalf("announcing version 0, the server logged a miss:\n%s", &log)
	}
	log.Reset()
	for _, e := range ring.Events() {
		if e.Note != "" {
			t.Fatalf("announcing version 0: span %+v carries a note", e)
		}
	}
	ring.Reset()
	cli.BaseVersion = base
	res, serverCosts := runVersioned(t, srv, cli)

	if serverCosts.JournalHits != 0 || serverCosts.JournalMisses != 1 || serverCosts.FilesJournal != 0 {
		t.Fatalf("journal hits/misses/files = %d/%d/%d, want 0/1/0",
			serverCosts.JournalHits, serverCosts.JournalMisses, serverCosts.FilesJournal)
	}
	if err := VerifyAgainst(res.Files, want); err != nil {
		t.Fatal(err)
	}
	if res.Version != version {
		t.Fatalf("the missed session reports version %d, want %d", res.Version, version)
	}
	if res.Costs.Roundtrips != plain.Costs.Roundtrips+1 || serverCosts.Roundtrips != plainServer.Roundtrips+1 {
		t.Fatalf("roundtrips client %d server %d, want one more than announcing version 0 (%d, %d)",
			res.Costs.Roundtrips, serverCosts.Roundtrips, plain.Costs.Roundtrips, plainServer.Roundtrips)
	}
	// The miss costs the REF and the empty WANT, nothing else.
	if extra := res.Costs.Total() - plain.Costs.Total(); extra != 2+md4.Size+2 || res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("the miss cost %d bytes more than announcing version 0, want %d (client total %d, server %d)",
			extra, 2+md4.Size+2, res.Costs.Total(), serverCosts.Total())
	}
	line := fmt.Sprintf("base=%d current=%d reason=%s", base, version, reason)
	if got := log.String(); strings.Count(got, "journal miss") != 1 || !strings.Contains(got, line) {
		t.Fatalf("server log, want one journal miss line with %q:\n%s", line, got)
	}
	noted := 0
	for _, e := range ring.Events() {
		if e.Note == "journal_miss:"+reason && e.Phase == obs.PhaseHandshake {
			noted++
		} else if e.Note != "" {
			t.Fatalf("span %+v carries a note", e)
		}
	}
	if noted != 1 {
		t.Fatalf("%d handshake spans carry the miss reason, want 1", noted)
	}
}

// TestJournalUnknownVersionFallsBack: an unknown announced version asks for
// the manifest, runs the full protocol and still teaches the client the
// current version.
func TestJournalUnknownVersionFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	checkJournalMiss(t, srv, tree1, tree2, 99, 2, "version_unknown")
}

// TestJournalCollectedVersionFallsBack: a version the store's budget has
// collected is as unknown as one it never held.
func TestJournalCollectedVersionFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServerAt(t, t.TempDir(), store.Options{Budget: 1}, tree1, tree2, core.DefaultConfig())
	checkJournalMiss(t, srv, tree1, tree2, 1, 2, "version_unknown")
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
	checkJournalMiss(t, srv, drifted, tree2, 1, 2, "digest_mismatch")
}

// TestJournalLiveTreeAheadFallsBack: a server whose tree has moved since its
// latest snapshot serves the tree, not the snapshot.
func TestJournalLiveTreeAheadFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	tree3 := map[string][]byte{"only.txt": []byte("the tree after the last snapshot")}
	if err := srv.adopt(srv.source(), &Result{Files: tree3}); err != nil {
		t.Fatal(err)
	}
	checkJournalMiss(t, srv, tree1, tree3, 1, 2, "tree_ahead_of_snapshot")
}

// TestJournalDamagedStoreFallsBack: a store that cannot read back the content
// its journal names serves the live tree.
func TestJournalDamagedStoreFallsBack(t *testing.T) {
	tree1, tree2 := versionedTrees()
	dir := t.TempDir()
	srv := versionedServerAt(t, dir, store.Options{}, tree1, tree2, core.DefaultConfig())
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in the store: %v", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	checkJournalMiss(t, srv, tree1, tree2, 1, 2, "unreadable")
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
	d := &store.Delta{Base: base, Current: 2, BaseManifest: BuildManifest(c.base)}
	for _, ch := range filelist.Diff(d.BaseManifest, BuildManifest(c.target)) {
		out := store.Change{Change: ch}
		switch ch.Op {
		case filelist.OpModify:
			out.Payload = []byte("definitely not a valid delta stream")
		case filelist.OpAdd:
			out.Payload = delta.Compress(c.target[ch.New.Path])
		}
		d.Changes = append(d.Changes, out)
	}
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
// a miss like any other, except that there is no version to learn.
func TestAnnounceAgainstPlainServer(t *testing.T) {
	tree1, tree2 := versionedTrees()
	srv, err := NewServer(tree2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkJournalMiss(t, srv, tree1, tree2, 7, 0, "unversioned")
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
