// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 6), shared by the
// msbench command and the repository's testing.B benchmarks.
//
// Each experiment returns a Table whose rows mirror the paper's artifact;
// see DESIGN.md §3 for the experiment index. Absolute numbers differ from
// the paper (synthetic corpora, our own delta coder — see the substitutions
// table), but the comparative shape is the reproduction target.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"msync/internal/cdc"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/pubsig"
	"msync/internal/rsync"
	"msync/internal/stats"
	"msync/internal/vcdiff"
)

// Table is one experiment's result in the paper's row/column layout.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one line of a result table.
type Row struct {
	Name   string
	Values []float64
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-34s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%14.1f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (title and notes as comment lines), for
// downstream plotting.
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprint(w, "name")
	for _, c := range t.Columns {
		fmt.Fprintf(w, ",%s", strings.ReplaceAll(c, ",", ";"))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprint(w, strings.ReplaceAll(r.Name, ",", ";"))
		for _, v := range r.Values {
			fmt.Fprintf(w, ",%.3f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// Get returns the named row's first value (for assertions in tests).
func (t *Table) Get(name string) (float64, bool) {
	for _, r := range t.Rows {
		if r.Name == name {
			if len(r.Values) == 0 {
				return 0, false
			}
			return r.Values[0], true
		}
	}
	return 0, false
}

// pair is one old/new file pair from a corpus.
type pair struct {
	old, cur []byte
}

// changedPairs extracts the file pairs that actually differ between two
// versions (all methods are assumed to skip unchanged files via the 16-byte
// per-file fingerprint; its cost is accounted separately).
func changedPairs(v1, v2 *corpus.Tree) (pairs []pair, unchanged, fingerprinted int) {
	oldM := v1.Map()
	for _, f := range v2.Files {
		fingerprinted++
		old := oldM[f.Path]
		if old != nil && md4.Sum(old) == md4.Sum(f.Data) {
			unchanged++
			continue
		}
		pairs = append(pairs, pair{old, f.Data})
	}
	return pairs, unchanged, fingerprinted
}

// sumCosts runs fn for every pair in parallel and accumulates costs.
func sumCosts(pairs []pair, fn func(p pair) stats.Costs) stats.Costs {
	nw := runtime.GOMAXPROCS(0)
	if nw > len(pairs) {
		nw = len(pairs)
	}
	if nw < 1 {
		nw = 1
	}
	results := make([]stats.Costs, len(pairs))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = fn(pairs[i])
			}
		}()
	}
	for i := range pairs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var total stats.Costs
	maxRT := 0
	for i := range results {
		rt := results[i].Roundtrips
		results[i].Roundtrips = 0
		total.Merge(&results[i])
		if rt > maxRT {
			maxRT = rt
		}
	}
	// Files share roundtrips in the collection protocol; the session needs
	// as many as the deepest file.
	total.Roundtrips = maxRT
	return total
}

// msyncCosts sums synchronization costs for every changed pair.
func msyncCosts(pairs []pair, cfg core.Config) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		res, err := core.SyncLocal(p.old, p.cur, cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: sync failed: %v", err))
		}
		return res.Costs
	})
}

// rsyncCosts sums rsync baseline costs.
func rsyncCosts(pairs []pair, blockSize int) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		r := rsync.Sync(p.old, p.cur, blockSize, rsync.DefaultStrongLen)
		var c stats.Costs
		c.Add(stats.C2S, stats.PhaseMap, r.C2S)
		c.Add(stats.S2C, stats.PhaseDelta, r.S2C)
		c.Roundtrips = 2
		return c
	})
}

// rsyncBestCosts sums the idealized per-file-optimal-block-size rsync.
func rsyncBestCosts(pairs []pair) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		r, _ := rsync.SyncBest(p.old, p.cur, rsync.DefaultStrongLen)
		var c stats.Costs
		c.Add(stats.C2S, stats.PhaseMap, r.C2S)
		c.Add(stats.S2C, stats.PhaseDelta, r.S2C)
		c.Roundtrips = 2
		return c
	})
}

// deltaCosts sums the zdelta-substitute lower bound (both files local).
func deltaCosts(pairs []pair) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		var c stats.Costs
		c.Add(stats.S2C, stats.PhaseDelta, delta.CompressedSize(p.old, p.cur))
		c.Roundtrips = 1
		return c
	})
}

// vcdiffCosts sums the RFC 3284 VCDIFF baseline (both files local).
func vcdiffCosts(pairs []pair) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		var c stats.Costs
		c.Add(stats.S2C, stats.PhaseDelta, vcdiff.CompressedSize(p.old, p.cur))
		c.Roundtrips = 1
		return c
	})
}

// cdcCosts sums the LBFS-style content-defined-chunking dedup baseline.
func cdcCosts(pairs []pair, p cdc.Params) stats.Costs {
	return sumCosts(pairs, func(pr pair) stats.Costs {
		r := cdc.Sync(pr.old, pr.cur, p)
		var c stats.Costs
		c.Add(stats.C2S, stats.PhaseMap, r.C2S)
		c.Add(stats.S2C, stats.PhaseDelta, r.S2C)
		c.Roundtrips = 2
		return c
	})
}

// pubsigCosts sums the published-signature (zsync-style) baseline: the
// signature download plus the fetched ranges, all server→client.
func pubsigCosts(pairs []pair) stats.Costs {
	return sumCosts(pairs, func(pr pair) stats.Costs {
		_, down, err := pubsig.Sync(pr.old, pr.cur, pubsig.DefaultBlockSize)
		if err != nil {
			panic(fmt.Sprintf("bench: pubsig: %v", err))
		}
		var c stats.Costs
		c.Add(stats.S2C, stats.PhaseDelta, down)
		c.Roundtrips = 2 // signature fetch, then range fetches
		return c
	})
}

// fullCosts sums compressed full-transfer sizes.
func fullCosts(pairs []pair) stats.Costs {
	return sumCosts(pairs, func(p pair) stats.Costs {
		var c stats.Costs
		c.Add(stats.S2C, stats.PhaseFull, len(delta.Compress(p.cur)))
		c.Roundtrips = 1
		return c
	})
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string][2]*corpus.Tree{}
)

// corpusPair generates (and caches) a source-tree corpus.
func corpusPair(profile corpus.SourceTreeProfile, seed int64) (*corpus.Tree, *corpus.Tree) {
	key := fmt.Sprintf("%s-%d-%d", profile.Name, profile.Files, seed)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusCache[key]; ok {
		return c[0], c[1]
	}
	v1, v2 := profile.Generate(seed)
	corpusCache[key] = [2]*corpus.Tree{v1, v2}
	return v1, v2
}

// Options scales and seeds the experiments.
type Options struct {
	// Scale multiplies corpus sizes; 1.0 is a multi-MB run, tests use less.
	Scale float64
	Seed  int64
}

// row builds a Row from costs in KB columns:
// s2c-map, c2s-map, delta, total, roundtrips.
func costRow(name string, c stats.Costs) Row {
	return Row{Name: name, Values: []float64{
		stats.KB(c.Bytes(stats.S2C, stats.PhaseMap)),
		stats.KB(c.Bytes(stats.C2S, stats.PhaseMap)),
		stats.KB(c.PhaseTotal(stats.PhaseDelta)),
		stats.KB(c.Total()),
		float64(c.Roundtrips),
	}}
}

var costColumns = []string{"map-s2c KB", "map-c2s KB", "delta KB", "total KB", "rtrips"}

// Experiments lists every experiment id known to Run.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var registry = map[string]func(Options) *Table{
	"fig6.1":          Fig61,
	"fig6.2":          Fig62,
	"fig6.3":          Fig63,
	"fig6.4":          Fig64,
	"table6.1":        Table61,
	"table6.2":        Table62,
	"ablate.decomp":   AblateDecomposable,
	"ablate.local":    AblateLocal,
	"ablate.bits":     AblateHashBits,
	"ablate.rounds":   AblateRounds,
	"ablate.latency":  Latency,
	"ablate.manifest": AblateManifest,
	"ablate.detect":   AblateDetect,
	"ablate.cdc":      AblateCDC,
	"ablate.cpu":      CPU,
	"ablate.twophase": AblateTwoPhase,
	"cdc.map":         CDCMap,
}

// Run executes one experiment by id.
func Run(id string, opts Options) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)",
			id, strings.Join(Experiments(), ", "))
	}
	return fn(opts), nil
}
