package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"msync/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Dec()
	g.Add(-3)
	if got := r.Gauge("g").Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 4 || s.Sum != 1022 {
		t.Fatalf("count/sum = %d/%d, want 4/1022", s.Count, s.Sum)
	}
	// Buckets: ≤10 gets {1, 10}; ≤100 gets {11}; +Inf gets {1000}.
	want := []int64{2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	// Same name returns the same histogram regardless of bounds.
	if r.Histogram("h", []int64{5}) != h {
		t.Fatal("histogram identity not stable per name")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", SizeBuckets).Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry exported metrics: %+v", s)
	}
	RecordCosts(nil, &stats.Costs{Roundtrips: 1})
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("msync_a_total").Add(7)
	r.Gauge("msync_active").Set(2)
	h := r.Histogram("msync_dur", []int64{10})
	h.Observe(5)
	h.Observe(50)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"msync_a_total 7\n",
		"msync_active 2\n",
		"msync_dur_bucket{le=\"10\"} 1\n",
		"msync_dur_bucket{le=\"+Inf\"} 2\n",
		"msync_dur_sum 55\n",
		"msync_dur_count 2\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatalf("JSON export not parseable: %v\n%s", err, buf.String())
	}
	if flat["msync_a_total"].(float64) != 7 {
		t.Fatalf("JSON counter = %v", flat["msync_a_total"])
	}
}

func TestDebugMuxServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("msync_x_total").Inc()
	mux := DebugMux(r)
	for _, path := range []string{"/metrics", "/debug/vars"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "msync_x_total") {
			t.Fatalf("%s: code %d body %q", path, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if !strings.Contains(rec.Body.String(), "msync_x_total 1") {
		t.Fatalf("text format: %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof endpoint: code %d", rec.Code)
	}
}

func TestRecordCostsRoundTrip(t *testing.T) {
	var c stats.Costs
	c.Add(stats.C2S, stats.PhaseControl, 10)
	c.Add(stats.S2C, stats.PhaseMap, 20)
	c.Add(stats.S2C, stats.PhaseDelta, 30)
	c.Add(stats.S2C, stats.PhaseFull, 40)
	c.Roundtrips = 3
	c.FilesSynced = 2
	c.FilesUnchanged = 5
	c.FilesFull = 1
	c.HashesSent = 100
	c.CandidatesFound = 50
	c.MatchesConfirmed = 40
	c.FalseCandidates = 10
	c.ContinuationHashes = 7
	c.BlockHashesComputed = 11
	c.BytesHashed = 1 << 20
	c.CacheHits = 4
	c.CacheMisses = 2
	c.CacheEvictions = 1

	r := NewRegistry()
	RecordCosts(r, &c)
	RecordCosts(r, &c)
	for _, d := range directions {
		for _, p := range phases {
			if got := r.Counter(byteCounterName(d, p)).Value(); got != 2*c.Bytes(d, p) {
				t.Fatalf("%s = %d, want doubled %d", byteCounterName(d, p), got, c.Bytes(d, p))
			}
		}
	}
	for _, cc := range costCounters {
		if got := r.Counter(cc.name).Value(); got != 2*cc.get(&c) {
			t.Fatalf("%s = %d, want doubled %d", cc.name, got, cc.get(&c))
		}
	}
}

func TestRingTracerWrapsAndOrders(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Round: i})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", len(evs), r.Total())
	}
	for i, want := range []int{3, 4, 5} {
		if evs[i].Round != want {
			t.Fatalf("events = %+v, want rounds 3,4,5 oldest first", evs)
		}
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Total() != 0 {
		t.Fatal("reset did not clear the ring")
	}
}

func TestJSONLTracerWritesOneObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{Phase: PhaseRound, Round: 1, BytesUp: 10})
	tr.Emit(Event{Phase: PhaseSession, Dur: time.Second})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "warning": "WARN", "Error": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil || lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %s", in, lvl, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	l := NopLogger()
	l.Info("dropped", "k", "v") // must not panic
	if OrNop(nil) == nil || OrNop(l) != l {
		t.Fatal("OrNop wrong")
	}
}

// TestConcurrentRegistryAndTracer hammers one registry, ring and JSONL
// tracer from many goroutines (run under -race via make check) and checks
// the totals equal a serial run.
func TestConcurrentRegistryAndTracer(t *testing.T) {
	const workers, perWorker = 8, 500
	r := NewRegistry()
	ring := NewRing(64)
	jl := NewJSONL(&bytes.Buffer{})
	h := r.Histogram("h", DurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				h.Observe(int64(i))
				ev := Event{Session: NextSessionID(), Phase: PhaseRound, BytesUp: 1}
				ring.Emit(ev)
				jl.Emit(ev)
				RecordCosts(r, &stats.Costs{Roundtrips: 1})
			}
		}()
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if got := r.Counter("c").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := h.snapshot().Count; got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	if got := ring.Total(); int64(got) != total {
		t.Fatalf("ring total = %d, want %d", got, total)
	}
	if got := r.Counter("msync_roundtrips_total").Value(); got != total {
		t.Fatalf("roundtrips = %d, want %d", got, total)
	}
	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}
}
