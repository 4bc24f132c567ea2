package msync_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"msync"
	"msync/internal/obs"
	"msync/internal/stats"
)

// storeSyncOnce runs one sync between srv and cli over a pipe.
func storeSyncOnce(t *testing.T, srv *msync.Server, cli *msync.Client) (*msync.Result, *msync.Costs) {
	t.Helper()
	a, b := msync.Pipe()
	var serverCosts *msync.Costs
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		c, err := srv.Serve(a)
		if err != nil {
			t.Error(err)
		}
		serverCosts = c
	}()
	res, err := cli.Sync(b)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	wg.Wait()
	return res, serverCosts
}

// TestStoreServerJournalSync drives the versioned public API end to end:
// snapshot, sync to learn the version, then — after the directory moved on
// and a restarted server (same store) cut a second version — a repeat sync
// announcing the learned version rides the journal fast path. The restart
// doubles as the store-persistence check.
func TestStoreServerJournalSync(t *testing.T) {
	serverDir, storeDir := t.TempDir(), t.TempDir()
	body := func(tag string, n int) string {
		return strings.Repeat("content for "+tag+"\n", n)
	}
	writeDirFile(t, serverDir, "same/a.txt", body("a", 200))
	writeDirFile(t, serverDir, "mod/b.txt", body("b", 300))
	writeDirFile(t, serverDir, "gone/c.txt", body("c", 50))

	srv, werrs, err := msync.NewStoreServer(serverDir, storeDir, msync.DefaultConfig())
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewStoreServer: %v %v", err, werrs)
	}
	if v, err := srv.Snapshot(); err != nil || v != 1 {
		t.Fatalf("snapshot = (%d, %v), want v1", v, err)
	}

	// Cold sync from empty, announcing "no known version" to learn one.
	cli := msync.NewClient(nil, msync.WithBaseVersion(0))
	res, _ := storeSyncOnce(t, srv, cli)
	if res.Version != 1 {
		t.Fatalf("first sync reported version %d, want 1", res.Version)
	}
	clientFiles := res.Files
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The collection moves on: b.txt edited, c.txt deleted, d.txt added.
	// A restarted server over the same store picks up at v1 and cuts v2.
	writeDirFile(t, serverDir, "mod/b.txt", body("b", 290)+"edited tail\n")
	writeDirFile(t, serverDir, "new/d.txt", body("d", 40))
	if err := os.Remove(filepath.Join(serverDir, "gone", "c.txt")); err != nil {
		t.Fatal(err)
	}
	reg := msync.NewMetricsRegistry()
	srv2, werrs, err := msync.NewStoreServer(serverDir, storeDir, msync.DefaultConfig(),
		msync.WithMetrics(reg))
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewStoreServer (reopen): %v %v", err, werrs)
	}
	defer srv2.Close()
	if v, err := srv2.Snapshot(); err != nil || v != 2 {
		t.Fatalf("snapshot = (%d, %v), want v2", v, err)
	}

	// Repeat sync from the learned version: journal fast path.
	cli2 := msync.NewClient(clientFiles, msync.WithBaseVersion(res.Version))
	res2, serverCosts := storeSyncOnce(t, srv2, cli2)
	if serverCosts.JournalHits != 1 || serverCosts.JournalMisses != 0 {
		t.Fatalf("journal hits/misses = %d/%d, want 1/0", serverCosts.JournalHits, serverCosts.JournalMisses)
	}
	if res2.Version != 2 {
		t.Fatalf("repeat sync reported version %d, want 2", res2.Version)
	}
	if !bytes.Contains(res2.Files["mod/b.txt"], []byte("edited tail")) {
		t.Fatal("journal sync missed the edit")
	}
	if _, ok := res2.Files["gone/c.txt"]; ok {
		t.Fatal("journal sync kept a deleted file")
	}
	if !bytes.Equal(res2.Files["new/d.txt"], []byte(body("d", 40))) {
		t.Fatal("journal sync missed the added file")
	}
	// The hit named the client's manifest by its digest: two roundtrips, and
	// next to nothing sent up.
	if up := res2.Costs.DirTotal(stats.C2S); up > 96 || res2.Costs.Roundtrips != 2 || serverCosts.Roundtrips != 2 {
		t.Fatalf("journal hit: %d bytes client to server (want at most 96), roundtrips %d and %d (want 2)",
			up, res2.Costs.Roundtrips, serverCosts.Roundtrips)
	}

	// The same replica announcing a version the store never held is asked
	// for its manifest: one roundtrip more on both ends than announcing
	// version 0, which sends it outright — and it converges and learns v2
	// all the same.
	zero, zeroServer := storeSyncOnce(t, srv2, msync.NewClient(clientFiles, msync.WithBaseVersion(0)))
	miss, missServer := storeSyncOnce(t, srv2, msync.NewClient(clientFiles, msync.WithBaseVersion(77)))
	if missServer.JournalMisses != 1 || miss.Version != 2 || !bytes.Equal(miss.Files["mod/b.txt"], res2.Files["mod/b.txt"]) {
		t.Fatalf("unknown version: %d misses, version %d", missServer.JournalMisses, miss.Version)
	}
	if miss.Costs.Roundtrips != zero.Costs.Roundtrips+1 || missServer.Roundtrips != zeroServer.Roundtrips+1 {
		t.Fatalf("unknown version: roundtrips %d and %d, want one more than announcing version 0 (%d and %d)",
			miss.Costs.Roundtrips, missServer.Roundtrips, zero.Costs.Roundtrips, zeroServer.Roundtrips)
	}

	// Store gauges and journal counters reached the registry.
	if got := reg.Gauge(obs.MetricStoreVersions).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricStoreVersions, got)
	}
	if reg.Gauge(obs.MetricStoreBytes).Value() <= 0 {
		t.Fatalf("%s not populated", obs.MetricStoreBytes)
	}
	if got := reg.Counter("msync_store_journal_hits_total").Value(); got != 1 {
		t.Fatalf("journal hit counter = %d, want 1", got)
	}
}

// TestSnapshotWithoutStore: Snapshot on a storeless server is a typed error.
func TestSnapshotWithoutStore(t *testing.T) {
	srv, err := msync.NewServer(map[string][]byte{"a": []byte("x")}, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Snapshot(); !errors.Is(err, msync.ErrNotVersioned) {
		t.Fatalf("Snapshot without store = %v, want ErrNotVersioned", err)
	}
}

// TestOptionValidation: every invalid option surfaces as ErrBadOption from
// error-returning constructors, and NewClient ignores it.
func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  msync.Option
	}{
		{"WithTimeout", msync.WithTimeout(-time.Second)},
		{"WithRoundTimeout", msync.WithRoundTimeout(-1)},
		{"WithDialTimeout", msync.WithDialTimeout(-1)},
		{"WithHandshakeTimeout", msync.WithHandshakeTimeout(-1)},
		{"WithBusyRetryAfter", msync.WithBusyRetryAfter(-1)},
		{"WithRetry", msync.WithRetry(msync.RetryPolicy{MaxAttempts: -1})},
		{"WithRetryJitter", msync.WithRetry(msync.RetryPolicy{Jitter: 1.5})},
		{"WithClock", msync.WithClock(nil)},
		{"WithSessionHook", msync.WithSessionHook(nil)},
		{"WithMaxSessions", msync.WithMaxSessions(-1)},
		{"WithMaxQueued", msync.WithMaxQueued(-1)},
		{"WithSignatureCache", msync.WithSignatureCache("", -1)},
		{"WithLogger", msync.WithLogger(nil)},
		{"WithTracer", msync.WithTracer(nil)},
		{"WithMetrics", msync.WithMetrics(nil)},
		{"WithWorkers", msync.WithWorkers(-1)},
		{"WithStore", msync.WithStore("")},
		{"WithStoreBudget", msync.WithStoreBudget(-1)},
	}
	files := map[string][]byte{"a": []byte("x")}
	for _, tc := range bad {
		if _, err := msync.NewClientE(files, tc.opt); !errors.Is(err, msync.ErrBadOption) {
			t.Errorf("NewClientE(%s) = %v, want ErrBadOption", tc.name, err)
		}
		if _, err := msync.NewServer(files, msync.DefaultConfig(), tc.opt); !errors.Is(err, msync.ErrBadOption) {
			t.Errorf("NewServer(%s) = %v, want ErrBadOption", tc.name, err)
		}
	}
	// NewClient is panic-free: invalid options are dropped, defaults kept.
	if cli := msync.NewClient(files, msync.WithWorkers(-1)); cli == nil {
		t.Fatal("NewClient with a bad option returned nil")
	}
	// And valid options still construct.
	if _, err := msync.NewClientE(files, msync.WithTreeManifest(), msync.WithTimeout(time.Minute)); err != nil {
		t.Fatalf("NewClientE with valid options: %v", err)
	}
}

// TestAnnounceVersionAgainstPlainServer: announcing to a storeless server is
// harmless and reports no version.
func TestAnnounceVersionAgainstPlainServer(t *testing.T) {
	srv, err := msync.NewServer(map[string][]byte{"a": []byte("server content")}, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := msync.NewClient(nil, msync.WithBaseVersion(3))
	res, serverCosts := storeSyncOnce(t, srv, cli)
	if res.Version != 0 {
		t.Fatalf("plain server reported version %d", res.Version)
	}
	if !bytes.Equal(res.Files["a"], []byte("server content")) {
		t.Fatal("sync did not converge")
	}
	// The server has no store to look version 3 up in and asks for the
	// manifest: a counted miss, and one roundtrip more on both ends than
	// announcing version 0.
	zero, zeroServer := storeSyncOnce(t, srv, msync.NewClient(nil, msync.WithBaseVersion(0)))
	if serverCosts.JournalMisses != 1 || res.Costs.Roundtrips != zero.Costs.Roundtrips+1 || serverCosts.Roundtrips != zeroServer.Roundtrips+1 {
		t.Fatalf("%d misses, roundtrips %d and %d; want 1 miss and one roundtrip more than announcing version 0 (%d and %d)",
			serverCosts.JournalMisses, res.Costs.Roundtrips, serverCosts.Roundtrips, zero.Costs.Roundtrips, zeroServer.Roundtrips)
	}
}
