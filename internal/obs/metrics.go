// Package obs is the repository's dependency-light observability layer: an
// atomic metrics registry (counters, gauges, fixed-bucket histograms) with
// expvar-style JSON and text export, a protocol tracer emitting span-like
// per-phase events, and log/slog helpers shared by the library and the CLIs.
//
// Everything here is optional and injectable. A nil *Registry, nil Tracer and
// nil *slog.Logger are valid everywhere they are accepted: the sync stack
// then does no extra work, allocates nothing for observability, and — the
// invariant the tests pin down — produces byte-identical traffic on the wire.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters only go
// up, and a buggy negative delta must not corrupt rate computations).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. active sessions). The zero
// value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds, ascending,
// with an implicit +Inf bucket) and tracks count and sum. Observations and
// snapshots are lock-free.
type Histogram struct {
	bounds []int64 // immutable after construction
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// newHistogram builds a histogram over the given bucket upper bounds. Bounds
// are copied and sorted; an empty layout degenerates to a single +Inf bucket.
func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistogramSnapshot is a consistent-enough copy of a histogram for export.
// (Per-bucket loads are individually atomic; a snapshot taken during
// concurrent observation may be off by in-flight increments, which is the
// standard contract for lock-free histograms.)
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Fixed bucket layouts. Durations are in nanoseconds (1ms … 100s), sizes in
// bytes (64B … 1GB); both cover the protocol's realistic range in roughly
// decade steps so dashboards stay comparable across runs.
var (
	DurationBuckets = []int64{
		int64(time.Millisecond), int64(10 * time.Millisecond),
		int64(100 * time.Millisecond), int64(time.Second),
		int64(10 * time.Second), int64(100 * time.Second),
	}
	SizeBuckets = []int64{64, 1 << 10, 16 << 10, 256 << 10, 4 << 20, 64 << 20, 1 << 30}
)

// Registry is a concurrency-safe collection of named metrics. Metrics are
// created on first use and live for the registry's lifetime; lookup takes the
// registry lock but increments touch only the metric's own atomics, so hot
// paths should hold on to the returned metric. A nil *Registry is inert:
// every method returns a usable metric that is simply not exported.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls return the existing histogram regardless
// of bounds, so one name always has one layout.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all current metric values. Safe against concurrent
// registration and updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// WriteJSON renders the registry expvar-style: one flat JSON object with
// scalar values for counters and gauges and nested objects for histograms.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	flat := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k, v := range s.Counters {
		flat[k] = v
	}
	for k, v := range s.Gauges {
		flat[k] = v
	}
	for k, v := range s.Histograms {
		flat[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flat)
}

// WriteText renders the registry in a Prometheus-flavoured text format:
// "name value" lines, histograms expanded into cumulative le-labelled
// buckets plus _sum and _count. Names are sorted for deterministic output.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v, ok := s.Counters[k]
		if !ok {
			v = s.Gauges[k]
		}
		fmt.Fprintf(&b, "%s %d\n", k, v)
	}
	hnames := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, k := range hnames {
		h := s.Histograms[k]
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", k, bound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", k, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", k, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", k, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry over HTTP: JSON by default, the text format
// with ?format=text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = r.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// DebugMux builds the CLI's -debug-addr endpoint: the metrics registry at
// /metrics (and expvar-style at /debug/vars) plus the standard pprof
// handlers under /debug/pprof/.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
