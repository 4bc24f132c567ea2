package msync_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"msync"
	"msync/internal/corpus"
)

// runSession synchronizes client files against server files over an
// in-memory pipe and returns the client's result.
func runSession(t *testing.T, serverFiles, clientFiles map[string][]byte, cfg msync.Config) *msync.Result {
	t.Helper()
	srv, err := msync.NewServer(serverFiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, serveErr = srv.Serve(a)
	}()
	res, err := msync.NewClient(clientFiles).Sync(b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	return res
}

func TestCollectionSyncEndToEnd(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.15).Generate(42)
	res := runSession(t, v2.Map(), v1.Map(), msync.DefaultConfig())
	if err := corpus.VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	total := res.Costs.Total()
	t.Logf("collection sync: %d files, %d bytes corpus, cost %d bytes (%.2f%%), %d roundtrips",
		len(v2.Files), v2.TotalBytes(), total,
		100*float64(total)/float64(v2.TotalBytes()), res.Costs.Roundtrips)
	if total > int64(v2.TotalBytes())/2 {
		t.Errorf("sync cost %d too close to full transfer %d", total, v2.TotalBytes())
	}
	if res.Costs.Roundtrips > 40 {
		t.Errorf("roundtrips %d should be bounded regardless of file count", res.Costs.Roundtrips)
	}
}

func TestCollectionNewAndDeletedFiles(t *testing.T) {
	serverFiles := map[string][]byte{
		"keep.txt":   bytes.Repeat([]byte("stable content "), 100),
		"new.txt":    bytes.Repeat([]byte("brand new file "), 200),
		"change.txt": bytes.Repeat([]byte("version two of this file "), 400),
	}
	clientFiles := map[string][]byte{
		"keep.txt":   serverFiles["keep.txt"],
		"gone.txt":   []byte("this file was deleted on the server"),
		"change.txt": bytes.Repeat([]byte("version one of this file "), 400),
	}
	res := runSession(t, serverFiles, clientFiles, msync.DefaultConfig())
	if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if res.Costs.FilesUnchanged != 1 {
		t.Errorf("FilesUnchanged = %d, want 1", res.Costs.FilesUnchanged)
	}
}

func TestCollectionEmptySides(t *testing.T) {
	files := map[string][]byte{"a": []byte("hello"), "b": bytes.Repeat([]byte("x"), 5000)}
	// Empty client: everything arrives as new files.
	res := runSession(t, files, map[string][]byte{}, msync.DefaultConfig())
	if err := corpus.VerifyAgainst(res.Files, files); err != nil {
		t.Fatal(err)
	}
	// Empty server: everything is deleted.
	res = runSession(t, map[string][]byte{}, files, msync.DefaultConfig())
	if len(res.Files) != 0 {
		t.Fatalf("expected empty result, got %d files", len(res.Files))
	}
}

func TestSyncFileConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old := corpus.SourceText(rng, 200_000)
	cur := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 5, EditSize: 50, BurstSpread: 400}.Apply(rng, old)
	for _, tc := range []struct {
		name string
		cfg  msync.Config
	}{
		{"default", msync.DefaultConfig()},
		{"basic", msync.BasicConfig()},
		{"oneshot", msync.OneShotConfig(512)},
	} {
		res, err := msync.SyncFile(old, cur, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(res.Data, cur) {
			t.Fatalf("%s: mismatch", tc.name)
		}
		t.Logf("%s: %d bytes (%.2f%% of file), %d rounds",
			tc.name, res.Costs.Total(), 100*float64(res.Costs.Total())/float64(len(cur)), res.Rounds)
	}
}

func TestTCPSync(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.05).Generate(9)
	srv, err := msync.NewServer(v2.Map(), msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenLoopback(t)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go srv.ServeListener(l)

	res, err := msync.NewClient(v1.Map()).SyncTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	t.Logf("tcp sync: %d bytes, %d roundtrips", res.Costs.Total(), res.Costs.Roundtrips)
}

// TestMuxStreamsOption: WithMuxStreams on both endpoints negotiates a
// multiplexed session through the public API, converges, and pays no more
// roundtrips than the legacy lockstep protocol (batched rounds should pay
// fewer whenever the corpus has files of uneven depth).
func TestMuxStreamsOption(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.1).Generate(21)
	legacy := runSession(t, v2.Map(), v1.Map(), msync.DefaultConfig())

	srv, err := msync.NewServer(v2.Map(), msync.DefaultConfig(), msync.WithMuxStreams(16))
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, serveErr = srv.Serve(a)
	}()
	cli, err := msync.NewClientE(v1.Map(), msync.WithMuxStreams(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Sync(b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	if err := corpus.VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	if res.Costs.Roundtrips > legacy.Costs.Roundtrips {
		t.Errorf("multiplexed session paid %d roundtrips, legacy %d",
			res.Costs.Roundtrips, legacy.Costs.Roundtrips)
	}
	t.Logf("mux: %d roundtrips vs legacy %d", res.Costs.Roundtrips, legacy.Costs.Roundtrips)

	if _, err := msync.NewClientE(nil, msync.WithMuxStreams(-1)); err == nil {
		t.Fatal("negative WithMuxStreams accepted")
	}
}

func TestBroadcastFile(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cur := corpus.SourceText(rng, 50_000)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 3, EditSize: 40, BurstSpread: 200}
	olds := [][]byte{em.Apply(rng, cur), em.Apply(rng, cur), nil}
	res, err := msync.BroadcastFile(cur, olds, msync.OneShotConfig(512))
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if !bytes.Equal(out, cur) {
			t.Fatalf("client %d mismatch", i)
		}
	}
	if res.Total() >= res.UnicastTotal() {
		t.Fatalf("broadcast %d not below unicast %d", res.Total(), res.UnicastTotal())
	}
}

// TestMapClientIgnoresLazyResult: a map-backed client holds its collection in
// memory anyway, so WithLazyResult leaves its Result whole: every file of the
// server's collection is in Files, unchanged ones included.
func TestMapClientIgnoresLazyResult(t *testing.T) {
	_, newFiles := obsCorpus()
	res, _ := runTracedSync(t, nil, []msync.Option{msync.WithLazyResult()})
	if !reflect.DeepEqual(res.Files, newFiles) || len(res.Unchanged) != 0 {
		t.Fatalf("lazy map client: %d files (want %d), %d listed unchanged", len(res.Files), len(newFiles), len(res.Unchanged))
	}
}
