package pubsig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func publishTwo(t *testing.T) (ArtifactStore, map[string][]byte, map[string][]byte) {
	t.Helper()
	s := NewMemStore()
	p, err := NewPublisher(s)
	if err != nil {
		t.Fatal(err)
	}
	v1 := testFiles(21, 6, 5_000)
	v2 := editSome(v1, 22)
	if _, _, err := p.Publish(v1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Publish(v2); err != nil {
		t.Fatal(err)
	}
	return s, v1, v2
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServerEndpoints(t *testing.T) {
	store, _, _ := publishTwo(t)
	h, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, body := get(t, srv, "/latest")
	if resp.StatusCode != 200 {
		t.Fatalf("/latest: %s", resp.Status)
	}
	var latest struct {
		Version  uint64 `json:"version"`
		Manifest string `json:"manifest"`
	}
	if err := json.Unmarshal(body, &latest); err != nil || latest.Version != 2 {
		t.Fatalf("/latest body %q: %v", body, err)
	}
	if cc := resp.Header.Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Fatalf("/latest must not be immutable: %q", cc)
	}

	resp, body = get(t, srv, latest.Manifest)
	if resp.StatusCode != 200 {
		t.Fatalf("manifest: %s", resp.Status)
	}
	m, err := ParseManifest(body)
	if err != nil || m.Version != 2 {
		t.Fatalf("manifest parse: %v", err)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != cacheImmutable {
		t.Fatalf("manifest Cache-Control = %q", cc)
	}
	if et := resp.Header.Get("ETag"); et == "" || !strings.HasPrefix(et, `"`) {
		t.Fatalf("manifest ETag = %q", et)
	}
	if resp.Header.Get("Content-Length") == "" {
		t.Fatal("manifest has no Content-Length")
	}

	e := m.Entries[0]
	sigURL := fmt.Sprintf("/v/%d/sig/%x", m.Version, e.Sum)
	resp, body = get(t, srv, sigURL)
	if resp.StatusCode != 200 {
		t.Fatalf("sig: %s", resp.Status)
	}
	if _, err := NewPlan(nil, body); err != nil {
		t.Fatalf("served sig unparsable: %v", err)
	}
	resp, body = get(t, srv, fmt.Sprintf("/v/%d/blob/%x", m.Version, e.Sum))
	if resp.StatusCode != 200 || len(body) != e.Len {
		t.Fatalf("blob: %s, %d bytes want %d", resp.Status, len(body), e.Len)
	}

	resp, body = get(t, srv, "/health")
	if resp.StatusCode != 200 {
		t.Fatalf("/health: %s", resp.Status)
	}
	var health struct {
		Status   string `json:"status"`
		Latest   uint64 `json:"latest"`
		Versions int    `json:"versions"`
	}
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" || health.Latest != 2 || health.Versions != 2 {
		t.Fatalf("/health body %q: %v", body, err)
	}

	for _, missing := range []string{
		"/v/9/manifest", "/v/0/manifest", "/v/2/sig/feedfeed", "/v/2/sig/zz",
		"/since/0", "/since/9", "/nope", "/v/2/unknown",
	} {
		if resp, _ := get(t, srv, missing); resp.StatusCode != 404 {
			t.Errorf("%s: %s, want 404", missing, resp.Status)
		}
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/latest", nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: %s", resp.Status)
	}
}

func TestServerSince(t *testing.T) {
	store, v1, v2 := publishTwo(t)
	h, _ := NewServer(store)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, body := get(t, srv, "/since/1")
	if resp.StatusCode != 200 {
		t.Fatalf("/since/1: %s", resp.Status)
	}
	d, err := ParseDelta(body)
	if err != nil || d.Base != 1 || d.Current != 2 {
		t.Fatalf("delta: %+v, %v", d, err)
	}
	changed := 0
	for k := range v1 {
		if !bytes.Equal(v1[k], v2[k]) {
			changed++
		}
	}
	if len(d.Upserts) != changed {
		t.Fatalf("delta upserts = %d, want %d", len(d.Upserts), changed)
	}

	// A reader already at the latest version gets 204.
	resp, _ = get(t, srv, "/since/2")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/since/latest: %s", resp.Status)
	}
}

// TestServerValidatorsStableAcrossRestarts pins the time.Now() fix at the
// REST surface: two server instances (a restart, or two replicas) over the
// same artifacts must serve identical ETags, and conditional requests made
// against one must revalidate against the other.
func TestServerValidatorsStableAcrossRestarts(t *testing.T) {
	store, _, _ := publishTwo(t)
	h1, _ := NewServer(store)
	srv1 := httptest.NewServer(h1)
	resp1, body1 := get(t, srv1, "/v/2/manifest")
	etag1 := resp1.Header.Get("ETag")
	lm1 := resp1.Header.Get("Last-Modified")
	srv1.Close()
	time.Sleep(10 * time.Millisecond) // a restart takes nonzero wall time

	h2, _ := NewServer(store)
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	resp2, body2 := get(t, srv2, "/v/2/manifest")
	if etag2 := resp2.Header.Get("ETag"); etag2 != etag1 || etag1 == "" {
		t.Fatalf("ETag drifted across restart: %q vs %q", etag1, etag2)
	}
	if lm2 := resp2.Header.Get("Last-Modified"); lm2 != lm1 {
		t.Fatalf("Last-Modified drifted across restart: %q vs %q", lm1, lm2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("artifact bytes drifted across restart")
	}

	// A cached copy from the first server revalidates against the second.
	req, _ := http.NewRequest(http.MethodGet, srv2.URL+"/v/2/manifest", nil)
	req.Header.Set("If-None-Match", etag1)
	resp, err := srv2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match across restart: %s, want 304", resp.Status)
	}
}

func TestServerBlobRangeAndHead(t *testing.T) {
	store, _, _ := publishTwo(t)
	h, _ := NewServer(store, WithModTime(time.Unix(1700000000, 0)))
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := loadManifest(t, store, 2)
	e := m.Entries[0]
	url := fmt.Sprintf("%s/v/2/blob/%x", srv.URL, e.Sum)

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Range", "bytes=100-199")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || len(body) != 100 {
		t.Fatalf("range: %s, %d bytes", resp.Status, len(body))
	}
	if cr := resp.Header.Get("Content-Range"); !strings.HasPrefix(cr, "bytes 100-199/") {
		t.Fatalf("Content-Range = %q", cr)
	}
	full, _ := store.Get(blobKey(e.Sum))
	if !bytes.Equal(body, full[100:200]) {
		t.Fatal("range bytes wrong")
	}

	headReq, _ := http.NewRequest(http.MethodHead, url, nil)
	resp, err = srv.Client().Do(headReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("ETag") == "" || resp.ContentLength != int64(e.Len) {
		t.Fatalf("HEAD: %s, ETag %q, length %d", resp.Status, resp.Header.Get("ETag"), resp.ContentLength)
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Fatal("WithModTime set but no Last-Modified served")
	}
}
