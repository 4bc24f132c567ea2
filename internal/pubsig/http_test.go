package pubsig

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHTTPFetcherAgainstNonRangeServer: servers that ignore Range must
// still work (the fetcher slices the full body).
func TestHTTPFetcherAgainstNonRangeServer(t *testing.T) {
	content := []byte("0123456789abcdef")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(content) // 200, no Range handling
	}))
	defer srv.Close()
	fetch := HTTPRangeFetcher(srv.Client(), srv.URL)
	got, err := fetch(context.Background(), 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "456789" {
		t.Fatalf("got %q", got)
	}
	if _, err := fetch(context.Background(), 10, 100); err == nil {
		t.Fatal("over-long range accepted")
	}
}

func TestHTTPFetcherServerError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	if _, err := HTTPRangeFetcher(srv.Client(), srv.URL)(context.Background(), 0, 4); err == nil {
		t.Fatal("403 accepted")
	}
}

// rawResponder serves a fixed status/header/body combination, for modeling
// broken servers and middleboxes that the fetcher must not trust.
func rawResponder(status int, contentRange string, body []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if contentRange != "" {
			w.Header().Set("Content-Range", contentRange)
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	})
}

// TestHTTPFetcherAdversarialResponses sweeps the fetcher across the
// response shapes a Range-ignoring or range-mangling server can produce:
// each must either yield exactly the requested bytes or a clean error,
// never silently-wrong data.
func TestHTTPFetcherAdversarialResponses(t *testing.T) {
	full := []byte("0123456789abcdefghij") // 20 bytes; we ask for [4,10)
	const off, length = 4, 6
	want := string(full[off : off+length])

	cases := []struct {
		name    string
		handler http.Handler
		want    string // "" = must error
	}{
		{"206 correct", rawResponder(206, "bytes 4-9/20", full[4:10]), want},
		{"206 unknown total", rawResponder(206, "bytes 4-9/*", full[4:10]), want},
		{"206 shifted range", rawResponder(206, "bytes 5-10/20", full[5:11]), ""},
		{"206 wrong length range", rawResponder(206, "bytes 4-10/20", full[4:11]), ""},
		{"206 missing Content-Range", rawResponder(206, "", full[4:10]), ""},
		{"206 garbage Content-Range", rawResponder(206, "bytes x-y/z", full[4:10]), ""},
		{"206 short body", rawResponder(206, "bytes 4-9/20", full[4:7]), ""},
		{"206 overlong body", rawResponder(206, "bytes 4-9/20", full[4:15]), ""},
		{"206 range beyond total", rawResponder(206, "bytes 4-9/8", full[4:10]), ""},
		{"200 full body sliced", rawResponder(200, "", full), want},
		{"200 short body", rawResponder(200, "", full[:6]), ""},
		{"200 empty body", rawResponder(200, "", nil), ""},
		{"416", rawResponder(416, "", nil), ""},
		{"500", rawResponder(500, "", nil), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			got, err := HTTPRangeFetcher(srv.Client(), srv.URL)(context.Background(), off, length)
			if tc.want == "" {
				if err == nil {
					t.Fatalf("accepted, returned %q", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}

func TestHTTPFetcherRejectsBadRanges(t *testing.T) {
	f := HTTPRangeFetcher(nil, "http://unused.invalid")
	if _, err := f(context.Background(), -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := f(context.Background(), 0, 0); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestHTTPFetcherHonorsContext(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test ends
	}))
	defer srv.Close()
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := HTTPRangeFetcher(srv.Client(), srv.URL)(ctx, 0, 4)
	if err == nil {
		t.Fatal("stalled fetch succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("fetch did not respect the context deadline")
	}
}
