package msync_test

// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure; see DESIGN.md §3). Each benchmark runs the corresponding
// experiment at a reduced scale and reports the headline byte costs as
// custom metrics, so `go test -bench` doubles as a smoke-level reproduction
// run; cmd/msbench produces the full-scale tables.

import (
	"math/rand"
	"testing"

	"msync"
	"msync/internal/bench"
	"msync/internal/corpus"
	"msync/internal/delta"
	"msync/internal/rsync"
)

// benchOpts keeps benchmark corpora small enough for -bench=. runs.
var benchOpts = bench.Options{Scale: 0.1, Seed: 42}

// runExperiment executes one experiment per iteration and reports the first
// and last rows' totals (typically: our best setting vs the baseline).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var table *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		table = t
	}
	if table != nil && len(table.Rows) > 0 {
		first := table.Rows[0]
		last := table.Rows[len(table.Rows)-1]
		b.ReportMetric(first.Values[len(first.Values)-2], "firstrow-KB")
		b.ReportMetric(last.Values[len(last.Values)-2], "lastrow-KB")
	}
}

func BenchmarkFig61(b *testing.B)   { runExperiment(b, "fig6.1") }
func BenchmarkFig62(b *testing.B)   { runExperiment(b, "fig6.2") }
func BenchmarkFig63(b *testing.B)   { runExperiment(b, "fig6.3") }
func BenchmarkFig64(b *testing.B)   { runExperiment(b, "fig6.4") }
func BenchmarkTable61(b *testing.B) { runExperiment(b, "table6.1") }
func BenchmarkTable62(b *testing.B) { runExperiment(b, "table6.2") }

func BenchmarkAblationDecomposable(b *testing.B) { runExperiment(b, "ablate.decomp") }
func BenchmarkAblationHashBits(b *testing.B)     { runExperiment(b, "ablate.bits") }
func BenchmarkAblationRounds(b *testing.B)       { runExperiment(b, "ablate.rounds") }

// --- micro-benchmarks of the three per-file engines on one workload ---

func benchPair(size int) (old, cur []byte) {
	rng := rand.New(rand.NewSource(77))
	old = corpus.SourceText(rng, size)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	return old, em.Apply(rng, old)
}

func BenchmarkSyncFileMsync(b *testing.B) {
	old, cur := benchPair(256 << 10)
	cfg := msync.DefaultConfig()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		res, err := msync.SyncFile(old, cur, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Costs.Total()
	}
	b.ReportMetric(float64(total), "wire-bytes")
}

func BenchmarkSyncFileRsync(b *testing.B) {
	old, cur := benchPair(256 << 10)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		r := rsync.Sync(old, cur, rsync.DefaultBlockSize, rsync.DefaultStrongLen)
		total = r.C2S + r.S2C
	}
	b.ReportMetric(float64(total), "wire-bytes")
}

func BenchmarkSyncFileDeltaBound(b *testing.B) {
	old, cur := benchPair(256 << 10)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = len(delta.Encode(old, cur))
	}
	b.ReportMetric(float64(total), "wire-bytes")
}

// BenchmarkCollectionSession measures the full networked protocol over an
// in-memory pipe.
func BenchmarkCollectionSession(b *testing.B) {
	v1, v2 := corpus.GCCProfile(0.1).Generate(42)
	serverFiles, clientFiles := v2.Map(), v1.Map()
	cfg := msync.DefaultConfig()
	b.SetBytes(int64(v2.TotalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := msync.NewServer(serverFiles, cfg)
		if err != nil {
			b.Fatal(err)
		}
		serverEnd, clientEnd := msync.Pipe()
		go func() {
			defer serverEnd.Close()
			srv.Serve(serverEnd)
		}()
		if _, err := msync.NewClient(clientFiles).Sync(clientEnd); err != nil {
			b.Fatal(err)
		}
		clientEnd.Close()
	}
}
