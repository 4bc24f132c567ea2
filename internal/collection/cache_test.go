package collection

import (
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/transport"
)

// TestManifestCacheReused: repeated sessions reuse the cached manifest
// (pointer identity), and a push invalidates it.
func TestManifestCacheReused(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.05).Generate(51)
	srv, err := NewServer(v1.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.AllowPush = true

	m1 := cachedManifest(t, srv)
	m2 := cachedManifest(t, srv)
	if &m1[0] != &m2[0] {
		t.Fatal("manifest rebuilt despite no change")
	}

	// Serve a session; cache must survive.
	runOneSession(t, srv, v1.Map())
	m3 := cachedManifest(t, srv)
	if &m1[0] != &m3[0] {
		t.Fatal("manifest invalidated by a read-only session")
	}

	// Push new content; cache must refresh.
	pusher, err := NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		srv.Serve(a)
	}()
	if _, err := pusher.PushContext(t.Context(), b); err != nil {
		t.Fatal(err)
	}
	b.Close()
	wg.Wait()

	m4 := cachedManifest(t, srv)
	if len(m4) == len(m1) && &m4[0] == &m1[0] {
		t.Fatal("manifest cache stale after push")
	}
	if err := VerifyAgainst(map[string][]byte(srv.source().(MapSource)), v2.Map()); err != nil {
		t.Fatal(err)
	}
}

// cachedManifest fetches the server's (cached) manifest via sessionState.
func cachedManifest(t *testing.T, srv *Server) []ManifestEntry {
	t.Helper()
	_, m, _, err := srv.sessionState()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runOneSession(t *testing.T, srv *Server, clientFiles map[string][]byte) {
	t.Helper()
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		if _, err := srv.Serve(a); err != nil {
			t.Error(err)
		}
	}()
	if _, err := NewClient(clientFiles).Sync(b); err != nil {
		t.Error(err)
	}
	b.Close()
	wg.Wait()
}

// TestConcurrentServesShareCache: parallel sessions on one server must not
// race on the manifest cache (run with -race in CI).
func TestConcurrentServesShareCache(t *testing.T) {
	v1, _ := corpus.GCCProfile(0.05).Generate(52)
	srv, err := NewServer(v1.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOneSession(t, srv, map[string][]byte{})
		}()
	}
	wg.Wait()
}
