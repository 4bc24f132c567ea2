package pubsig

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msync/internal/dirio"
	"msync/internal/obs"
)

func writeTree(t *testing.T, files map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	if err := dirio.ApplyChanges(root, files, nil); err != nil {
		t.Fatal(err)
	}
	return root
}

func assertTreeEquals(t *testing.T, root string, want map[string][]byte) {
	t.Helper()
	tree, werrs, err := dirio.OpenTree(root)
	if err != nil || len(werrs) > 0 {
		t.Fatal(err, werrs)
	}
	if len(tree.Files()) != len(want) {
		t.Fatalf("tree has %d files, want %d", len(tree.Files()), len(want))
	}
	for k, v := range want {
		if got, err := tree.Load(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("file %q differs after sync (%v)", k, err)
		}
	}
}

// publishServer publishes the versions and serves them; the registry holds
// the publisher's and the server's counters.
func publishServer(t *testing.T, versions ...map[string][]byte) (*httptest.Server, *obs.Registry) {
	t.Helper()
	s := NewMemStore()
	reg := obs.NewRegistry()
	p, err := NewPublisher(s, WithPublisherMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, files := range versions {
		if _, _, err := p.Publish(files); err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewServer(s, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, reg
}

// immutableCache is a shared HTTP cache in front of an origin, as a CDN is:
// a response the origin marked immutable is stored (by URL and Range) and
// answers every later request for it; the rest goes to the origin, counted.
type immutableCache struct {
	origin http.RoundTripper

	mu             sync.Mutex
	stored         map[string]cachedResponse
	originRequests int
}

type cachedResponse struct {
	resp *http.Response
	body []byte
}

func (c *immutableCache) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.String() + " " + req.Header.Get("Range")
	c.mu.Lock()
	defer c.mu.Unlock()
	hit, ok := c.stored[key]
	if !ok {
		c.originRequests++
		resp, err := c.origin.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		hit = cachedResponse{resp, body}
		if resp.StatusCode < 300 && strings.Contains(resp.Header.Get("Cache-Control"), "immutable") {
			c.stored[key] = hit
		}
	}
	out := *hit.resp
	out.Request = req
	out.Body = io.NopCloser(bytes.NewReader(hit.body))
	return &out, nil
}

func TestSyncerFullManifestPath(t *testing.T) {
	v1 := testFiles(31, 8, 6_000)
	v2 := editSome(v1, 32)
	delete(v2, func() string {
		for k := range v2 {
			return k
		}
		return ""
	}())
	v2["added/file.txt"] = []byte("entirely new content here")
	srv, pubReg := publishServer(t, v1, v2)
	hashed := pubReg.Counter("pubsig_publish_bytes_hashed").Value()
	cdn := &immutableCache{origin: srv.Client().Transport, stored: map[string]cachedResponse{}}

	root := writeTree(t, v1)
	sy := &Syncer{Client: &http.Client{Transport: cdn}, BaseURL: srv.URL}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root, v2)
	if res.Version != 2 || res.DeltaPath {
		t.Fatalf("result: %+v", res)
	}

	// A second reader from the same base behind the same cache: every
	// versioned artifact is immutable, so only the mutable endpoints reach
	// the origin, and no reader makes the publisher hash anything.
	first := cdn.originRequests
	root2 := writeTree(t, v1)
	if _, err := sy.Sync(context.Background(), root2); err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root2, v2)
	if extra := cdn.originRequests - first; first <= 4 || extra > 4 {
		t.Fatalf("origin saw %d requests for the first reader and %d for the second, want > 4 and <= 4", first, extra)
	}
	// A third reader straight at the origin: every request reaches it, and it
	// hashes nothing for them — each artifact's validator was computed once.
	served := pubReg.Counter("pubsig_http_bytes_hashed").Value()
	root3 := writeTree(t, v1)
	if _, err := (&Syncer{Client: srv.Client(), BaseURL: srv.URL}).Sync(context.Background(), root3); err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root3, v2)
	if got := pubReg.Counter("pubsig_http_bytes_hashed").Value(); got != served || served == 0 {
		t.Fatalf("a further reader moved the server's hashed bytes from %d to %d", served, got)
	}
	if got := pubReg.Counter("pubsig_publish_bytes_hashed").Value(); got != hashed || hashed == 0 {
		t.Fatalf("readers moved the publisher's hashed bytes from %d to %d", hashed, got)
	}
	if res.FilesDeleted != 1 {
		t.Fatalf("deleted %d files, want 1", res.FilesDeleted)
	}
	if res.FilesUnchanged == 0 || res.FilesSynced == 0 {
		t.Fatalf("unchanged=%d synced=%d", res.FilesUnchanged, res.FilesSynced)
	}
	// Light edits must ride ranges, not whole blobs: the wire cost of the
	// changed files should be far below their total size.
	var changedBytes int64
	for k, v := range v2 {
		if !bytes.Equal(v1[k], v) {
			changedBytes += int64(len(v))
		}
	}
	if res.RangeBytes+res.BlobBytes >= changedBytes {
		t.Fatalf("fetched %d content bytes for %d bytes of changed files", res.RangeBytes+res.BlobBytes, changedBytes)
	}
	if res.BytesReusedLocal == 0 {
		t.Fatal("no local block reuse recorded")
	}
}

func TestSyncerDeltaPath(t *testing.T) {
	v1 := testFiles(33, 8, 6_000)
	v2 := editSome(v1, 34)
	srv, _ := publishServer(t, v1, v2)

	root := writeTree(t, v1)
	reg := obs.NewRegistry()
	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL, BaseVersion: 1, Metrics: reg}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root, v2)
	if !res.DeltaPath || res.Version != 2 {
		t.Fatalf("delta path not taken: %+v", res)
	}
	if reg.Counter("pubsig_sync_delta_hits").Value() != 1 {
		t.Fatal("delta hit not counted")
	}

	// The delta path must not download the full manifest: its metadata
	// bytes are bounded by the change set, not the collection size.
	fullRes := func() *SyncResult {
		root2 := writeTree(t, v1)
		sy2 := &Syncer{Client: srv.Client(), BaseURL: srv.URL}
		r, err := sy2.Sync(context.Background(), root2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if res.ManifestBytes >= fullRes.ManifestBytes {
		t.Fatalf("delta metadata %d >= full manifest %d", res.ManifestBytes, fullRes.ManifestBytes)
	}
	if res.BytesDown >= fullRes.BytesDown {
		t.Fatalf("delta path downloaded %d bytes, the full-manifest path %d for the same version pair", res.BytesDown, fullRes.BytesDown)
	}
}

func TestSyncerUpToDate(t *testing.T) {
	v1 := testFiles(35, 5, 4_000)
	srv, _ := publishServer(t, v1)
	root := writeTree(t, v1)

	// Announcing the current version costs two tiny requests and no work.
	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL, BaseVersion: 1}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeltaPath || res.FilesSynced+res.FilesFull+res.FilesDeleted != 0 {
		t.Fatalf("up-to-date sync did work: %+v", res)
	}
	if res.SigBytes+res.RangeBytes+res.BlobBytes != 0 {
		t.Fatalf("up-to-date sync downloaded content: %+v", res)
	}
	assertTreeEquals(t, root, v1)
}

func TestSyncerUnknownBaseFallsBack(t *testing.T) {
	v1 := testFiles(36, 6, 5_000)
	v2 := editSome(v1, 37)
	srv, _ := publishServer(t, v1, v2)
	root := writeTree(t, v1)

	// Version 77 was never published: /since misses, the full manifest
	// path must still converge.
	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL, BaseVersion: 77}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaPath {
		t.Fatal("rode a delta for an unknown base")
	}
	assertTreeEquals(t, root, v2)
}

func TestSyncerFromScratchAndTamper(t *testing.T) {
	v1 := testFiles(38, 5, 4_000)
	srv, _ := publishServer(t, v1)

	// Empty tree: every file arrives as a whole blob.
	root := t.TempDir()
	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root, v1)
	if res.FilesFull != len(v1) || res.FilesSynced != 0 {
		t.Fatalf("from-scratch: %+v", res)
	}

	// Tamper with one local file, keeping its size (mtime also changes,
	// but the full path hashes, so even a same-mtime tamper is caught).
	var victim string
	for k := range v1 {
		victim = k
		break
	}
	path := filepath.Join(root, filepath.FromSlash(victim))
	data := append([]byte(nil), v1[victim]...)
	for i := range data[:200] {
		data[i] ^= 0x5A
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeEquals(t, root, v1)
	if res.FilesSynced != 1 {
		t.Fatalf("tampered file not repaired: %+v", res)
	}
}

func TestSyncerDryRun(t *testing.T) {
	v1 := testFiles(39, 6, 4_000)
	v2 := editSome(v1, 40)
	srv, _ := publishServer(t, v1, v2)
	root := writeTree(t, v1)

	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL, DryRun: true}
	res, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesSynced == 0 {
		t.Fatal("dry run found nothing to do")
	}
	if res.SigBytes+res.RangeBytes+res.BlobBytes != 0 {
		t.Fatalf("dry run downloaded content: %+v", res)
	}
	assertTreeEquals(t, root, v1) // untouched
}

func TestSyncerCancellation(t *testing.T) {
	v1 := testFiles(41, 6, 5_000)
	srv, _ := publishServer(t, v1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL}
	if _, err := sy.Sync(ctx, t.TempDir()); err == nil {
		t.Fatal("canceled sync succeeded")
	}
}

// TestSyncerRepeatedIsStable: syncing twice in a row converges then does
// nothing, and the second sync's announced base rides the 204 fast path.
func TestSyncerRepeatedIsStable(t *testing.T) {
	v1 := testFiles(42, 7, 5_000)
	v2 := editSome(v1, 43)
	srv, _ := publishServer(t, v1, v2)
	root := writeTree(t, v1)

	sy := &Syncer{Client: srv.Client(), BaseURL: srv.URL}
	res1, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	sy.BaseVersion = res1.Version
	res2, err := sy.Sync(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FilesSynced+res2.FilesFull+res2.FilesDeleted != 0 {
		t.Fatalf("second sync did work: %+v", res2)
	}
	assertTreeEquals(t, root, v2)
}
