package collection

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
)

// treeSession runs one sync with tree-manifest change detection.
func treeSession(t *testing.T, serverFiles, clientFiles map[string][]byte) (*Result, *stats.Costs) {
	t.Helper()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	cli := NewClient(clientFiles)
	cli.TreeManifest = true
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

func TestTreeModeEndToEnd(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.15).Generate(99)
	res, serverCosts := treeSession(t, v2.Map(), v1.Map())
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("cost disagreement: %d vs %d", res.Costs.Total(), serverCosts.Total())
	}
}

func TestTreeModeNewAndDeleted(t *testing.T) {
	serverFiles := map[string][]byte{
		"keep":   bytes.Repeat([]byte("same "), 200),
		"new":    bytes.Repeat([]byte("fresh "), 300),
		"change": bytes.Repeat([]byte("v2 data "), 400),
	}
	clientFiles := map[string][]byte{
		"keep":   serverFiles["keep"],
		"gone":   []byte("deleted on server"),
		"change": bytes.Repeat([]byte("v1 data "), 400),
	}
	res, _ := treeSession(t, serverFiles, clientFiles)
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
}

// TestTreeModeSublinearControl: with few changes in a large collection, the
// tree handshake must cost far less than the flat manifest.
func TestTreeModeSublinearControl(t *testing.T) {
	files := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		files[fmt.Sprintf("f/%04d", i)] = corpus.SourceText(rng, 300)
	}
	serverFiles := make(map[string][]byte, len(files))
	for k, v := range files {
		serverFiles[k] = v
	}
	serverFiles["f/0042"] = corpus.SourceText(rng, 3000)
	serverFiles["f/0907"] = corpus.SourceText(rng, 3000)

	_, manifestCosts := sessionWithMode(t, serverFiles, files, false)
	_, treeCosts := sessionWithMode(t, serverFiles, files, true)

	mc := manifestCosts.PhaseTotal(stats.PhaseControl)
	tc := treeCosts.PhaseTotal(stats.PhaseControl)
	if tc*4 > mc {
		t.Fatalf("tree control bytes %d not clearly below manifest %d", tc, mc)
	}
	if manifestCosts.TreeRounds != 0 || treeCosts.TreeRounds == 0 {
		t.Fatalf("descent rounds misattributed: manifest %d, tree %d", manifestCosts.TreeRounds, treeCosts.TreeRounds)
	}
	t.Logf("control bytes: manifest %d, tree %d (%.1fx better)", mc, tc, float64(mc)/float64(tc))
}

func sessionWithMode(t *testing.T, serverFiles, clientFiles map[string][]byte, tree bool) (*Result, *stats.Costs) {
	t.Helper()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	var serverCosts *stats.Costs
	var serverErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.Serve(a)
	}()
	cli := NewClient(clientFiles)
	cli.TreeManifest = tree
	res, err := cli.Sync(b)
	b.Close()
	wg.Wait()
	if err != nil || serverErr != nil {
		t.Fatalf("client=%v server=%v", err, serverErr)
	}
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	return res, serverCosts
}

func TestTreeModeIdenticalCollections(t *testing.T) {
	v1, _ := corpus.GCCProfile(0.1).Generate(7)
	res, _ := treeSession(t, v1.Map(), v1.Map())
	if err := VerifyAgainst(res.Files, v1.Map()); err != nil {
		t.Fatal(err)
	}
	// Root digests match: the whole exchange is a few dozen bytes.
	if res.Costs.Total() > 200 {
		t.Fatalf("identical collections cost %d bytes in tree mode", res.Costs.Total())
	}
	t.Logf("identical collections: %d bytes total", res.Costs.Total())
}

func TestTreeModeEmptyClient(t *testing.T) {
	v1, _ := corpus.GCCProfile(0.05).Generate(13)
	res, _ := treeSession(t, v1.Map(), map[string][]byte{})
	if err := VerifyAgainst(res.Files, v1.Map()); err != nil {
		t.Fatal(err)
	}
}
