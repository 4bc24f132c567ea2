package collection

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/dirio"
	"msync/internal/sigcache"
	"msync/internal/stats"
	"msync/internal/transport"
)

// wireRecorder mirrors everything one endpoint writes into a buffer, so two
// sessions can be compared byte for byte.
type wireRecorder struct {
	io.ReadWriteCloser
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w wireRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	w.mu.Unlock()
	return w.ReadWriteCloser.Write(p)
}

// makeCacheModeTrees writes a server tree and an outdated client copy:
// an unchanged file, two modified ones, a server-only (new) file and a
// client-only (to-be-deleted) file.
func makeCacheModeTrees(t *testing.T) (serverDir, clientDir string) {
	t.Helper()
	serverDir, clientDir = t.TempDir(), t.TempDir()
	block := func(tag string, n int) string {
		return strings.Repeat("synthetic source line for "+tag+"\n", n)
	}
	write := func(dir, rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	same := block("same", 400)
	oldB, newB := block("b", 1200), block("b", 600)+"edited\n"+block("b", 599)
	oldE, newE := block("e", 800), "prepended\n"+block("e", 800)
	write(serverDir, "same/a.txt", same)
	write(clientDir, "same/a.txt", same)
	write(serverDir, "mod/b.txt", newB)
	write(clientDir, "mod/b.txt", oldB)
	write(serverDir, "mod/e.txt", newE)
	write(clientDir, "mod/e.txt", oldE)
	write(serverDir, "new/c.txt", block("c", 300))
	write(clientDir, "old/d.txt", block("d", 100))
	return serverDir, clientDir
}

// runCacheModeSession syncs clientDir against serverDir through fresh
// TreeSources over the given caches, recording both directions of the wire.
func runCacheModeSession(t *testing.T, serverDir, clientDir string, sCache, cCache *sigcache.Cache, paranoid bool) (serverBytes, clientBytes []byte, res *Result, serverCosts *stats.Costs) {
	t.Helper()
	cfg := core.DefaultConfig()
	sTree, werrs, err := dirio.OpenTree(serverDir)
	if err != nil || len(werrs) > 0 {
		t.Fatalf("server tree: %v %v", err, werrs)
	}
	cTree, werrs, err := dirio.OpenTree(clientDir)
	if err != nil || len(werrs) > 0 {
		t.Fatalf("client tree: %v %v", err, werrs)
	}
	srv, err := NewServerSource(NewTreeSource(sTree, sCache, ConfigFingerprint(&cfg), paranoid), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClientSource(NewTreeSource(cTree, cCache, 0, paranoid))
	cli.LazyResult = true

	a, b := transport.Pipe()
	var mu sync.Mutex
	var sb, cb bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		c, err := srv.Serve(wireRecorder{a, &mu, &sb})
		if err != nil {
			t.Error(err)
		}
		serverCosts = c
	}()
	res, err = cli.Sync(wireRecorder{b, &mu, &cb})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	wg.Wait()
	return sb.Bytes(), cb.Bytes(), res, serverCosts
}

// TestCacheModesWireIdentical runs the same changed-tree sync with the cache
// off, cold, warm and warm+paranoid, and demands byte-identical traffic in
// both directions plus identical results — the invariant that the cache only
// ever changes who computes a hash, never its value.
func TestCacheModesWireIdentical(t *testing.T) {
	serverDir, clientDir := makeCacheModeTrees(t)
	want, err := dirio.Load(serverDir)
	if err != nil {
		t.Fatal(err)
	}

	checkResult := func(mode string, res *Result) {
		t.Helper()
		if len(res.Deleted) != 1 || res.Deleted[0] != "old/d.txt" {
			t.Fatalf("%s: Deleted = %v", mode, res.Deleted)
		}
		for path, data := range res.Files {
			if !bytes.Equal(data, want[path]) {
				t.Fatalf("%s: wrong content for %s", mode, path)
			}
		}
		if len(res.Files)+len(res.Unchanged) != len(want) {
			t.Fatalf("%s: %d written + %d unchanged, want %d total",
				mode, len(res.Files), len(res.Unchanged), len(want))
		}
	}

	offS, offC, res, offCosts := runCacheModeSession(t, serverDir, clientDir, nil, nil, false)
	checkResult("off", res)
	if offCosts.CacheHits != 0 || offCosts.CacheMisses != 0 {
		t.Fatalf("run without a cache recorded %d hits / %d misses", offCosts.CacheHits, offCosts.CacheMisses)
	}

	sCache := sigcache.New(sigcache.Options{})
	cCache := sigcache.New(sigcache.Options{})
	coldS, coldC, res, coldCosts := runCacheModeSession(t, serverDir, clientDir, sCache, cCache, false)
	checkResult("cold", res)
	if coldCosts.CacheMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}

	warmS, warmC, res, warmCosts := runCacheModeSession(t, serverDir, clientDir, sCache, cCache, false)
	checkResult("warm", res)
	if warmCosts.CacheMisses != 0 || warmCosts.CacheHits == 0 {
		t.Fatalf("warm server cache: %d misses / %d hits", warmCosts.CacheMisses, warmCosts.CacheHits)
	}
	// The cold session's engines deposited their level tables into the shared
	// signatures, so the warm session recomputes only session-dependent probe
	// hashes.
	if warmCosts.BlockHashesComputed >= coldCosts.BlockHashesComputed {
		t.Fatalf("warm engines hashed %d blocks, cold %d — levels not reused",
			warmCosts.BlockHashesComputed, coldCosts.BlockHashesComputed)
	}

	paraS, paraC, res, _ := runCacheModeSession(t, serverDir, clientDir, sCache, cCache, true)
	checkResult("paranoid", res)

	for mode, got := range map[string][2][]byte{
		"cold":     {coldS, coldC},
		"warm":     {warmS, warmC},
		"paranoid": {paraS, paraC},
	} {
		if !bytes.Equal(got[0], offS) {
			t.Errorf("%s: server→client bytes differ from cache-off run", mode)
		}
		if !bytes.Equal(got[1], offC) {
			t.Errorf("%s: client→server bytes differ from cache-off run", mode)
		}
	}
}

// TestRepeatedServeReusesEngineLevels: one server (no disk cache, just the
// per-source signature memo) serving the same outdated client twice computes
// strictly fewer block hashes the second time, with identical wire traffic.
func TestRepeatedServeReusesEngineLevels(t *testing.T) {
	serverDir, clientDir := makeCacheModeTrees(t)
	cfg := core.DefaultConfig()
	sTree, werrs, err := dirio.OpenTree(serverDir)
	if err != nil || len(werrs) > 0 {
		t.Fatalf("server tree: %v %v", err, werrs)
	}
	srv, err := NewServerSource(NewTreeSource(sTree, nil, ConfigFingerprint(&cfg), false), cfg)
	if err != nil {
		t.Fatal(err)
	}

	serveOnce := func() (wire []byte, costs *stats.Costs) {
		t.Helper()
		cTree, werrs, err := dirio.OpenTree(clientDir)
		if err != nil || len(werrs) > 0 {
			t.Fatalf("client tree: %v %v", err, werrs)
		}
		cli := NewClientSource(NewTreeSource(cTree, nil, 0, false))
		cli.LazyResult = true
		a, b := transport.Pipe()
		var mu sync.Mutex
		var sb bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer a.Close()
			c, err := srv.Serve(wireRecorder{a, &mu, &sb})
			if err != nil {
				t.Error(err)
			}
			costs = c
		}()
		if _, err := cli.Sync(b); err != nil {
			t.Fatal(err)
		}
		b.Close()
		wg.Wait()
		return sb.Bytes(), costs
	}

	wire1, costs1 := serveOnce()
	wire2, costs2 := serveOnce()
	if costs1.BlockHashesComputed == 0 {
		t.Fatal("first session computed no block hashes — trees too small for the test")
	}
	if costs2.BlockHashesComputed >= costs1.BlockHashesComputed {
		t.Fatalf("second session computed %d block hashes, first %d — memoized levels unused",
			costs2.BlockHashesComputed, costs1.BlockHashesComputed)
	}
	// What publish mode exists to avoid: every further reader still costs the
	// interactive server hashing (the session-dependent probe hashes).
	if costs2.BlockHashesComputed == 0 || costs2.BytesHashed == 0 {
		t.Fatalf("second session accounted %d block hashes over %d bytes", costs2.BlockHashesComputed, costs2.BytesHashed)
	}
	if !bytes.Equal(wire1, wire2) {
		t.Fatal("level reuse changed the bytes on the wire")
	}
}
