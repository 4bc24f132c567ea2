package bench

import (
	"context"
	"fmt"

	"msync/internal/cdc"
	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/gtest"
	"msync/internal/stats"
	"msync/internal/transport"
)

// figMinBlocks is the minimum-block-size sweep of Figures 6.1/6.2.
var figMinBlocks = []int{1024, 512, 256, 128, 64, 32}

// figBasic runs the basic-protocol sweep on one corpus profile.
func figBasic(title string, profile corpus.SourceTreeProfile, opts Options) *Table {
	v1, v2 := corpusPair(profile, opts.Seed)
	pairs, unchanged, total := changedPairs(v1, v2)
	t := &Table{
		Title:   title,
		Columns: costColumns,
		Notes: []string{fmt.Sprintf("%d files, %d changed, %d unchanged, %.1f MB corpus",
			total, len(pairs), unchanged, float64(v2.TotalBytes())/(1<<20))},
	}
	for _, bmin := range figMinBlocks {
		cfg := core.BasicConfig()
		cfg.MinBlockSize = bmin
		if cfg.MaxBlockSize < bmin {
			cfg.MaxBlockSize = bmin
		}
		c := msyncCosts(pairs, cfg)
		t.Rows = append(t.Rows, costRow(fmt.Sprintf("basic bmin=%d", bmin), c))
	}
	t.Rows = append(t.Rows, costRow("rsync default(700)", rsyncCosts(pairs, 700)))
	t.Rows = append(t.Rows, costRow("rsync best-block", rsyncBestCosts(pairs)))
	t.Rows = append(t.Rows, costRow("delta bound (zdelta-sub)", deltaCosts(pairs)))
	return t
}

// Fig61 regenerates Figure 6.1: the basic protocol on the gcc corpus with
// different minimum block sizes, vs rsync and the delta bound.
func Fig61(opts Options) *Table {
	return figBasic("Figure 6.1 — basic protocol vs min block size (gcc)",
		corpus.GCCProfile(opts.Scale), opts)
}

// Fig62 regenerates Figure 6.2: the same on the emacs corpus.
func Fig62(opts Options) *Table {
	return figBasic("Figure 6.2 — basic protocol vs min block size (emacs)",
		corpus.EmacsProfile(opts.Scale), opts)
}

// Fig63 regenerates Figure 6.3: continuation hashes with various minimum
// continuation block sizes; leftmost row is group verification without
// continuation hashes.
func Fig63(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{
		Title:   "Figure 6.3 — continuation hashes (gcc)",
		Columns: dslColumns,
	}
	for _, cmin := range []int{0, 64, 32, 16, 8} {
		cfg := core.PaperConfig()
		cfg.ContMinBlock = cmin
		name := "group verify, no continuation"
		if cmin > 0 {
			name = fmt.Sprintf("continuation down to %d B", cmin)
		}
		t.Rows = append(t.Rows, dslCostRow(name, msyncCosts(pairs, cfg)))
	}
	t.Notes = append(t.Notes,
		"paper: continuation hashes profit down to ~8-16 byte blocks; harvest rate is high")
	return t
}

// Fig64 regenerates Figure 6.4: match-verification strategies.
func Fig64(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{
		Title:   "Figure 6.4 — match verification strategies (gcc)",
		Columns: dslColumns,
	}
	strategies := []struct {
		name string
		v    gtest.Config
	}{
		{"trivial (per-candidate)", gtest.TrivialConfig()},
		{"groups, 1 roundtrip", gtest.Config{Batches: 1, GroupSize: 4, TrustedGroupSize: 8, SplitFactor: 2}},
		{"groups, 2 roundtrips", gtest.Config{Batches: 2, GroupSize: 4, TrustedGroupSize: 8, SplitFactor: 2, RetryAlternates: 1}},
		{"groups, 3 roundtrips", gtest.Config{Batches: 3, GroupSize: 6, TrustedGroupSize: 12, SplitFactor: 3, RetryAlternates: 1}},
		{"aggressive groups, 3 rt", gtest.Config{Batches: 3, GroupSize: 16, TrustedGroupSize: 32, SplitFactor: 4, RetryAlternates: 1}},
	}
	for _, s := range strategies {
		cfg := core.PaperConfig()
		cfg.Verify = s.v
		t.Rows = append(t.Rows, dslCostRow(s.name, msyncCosts(pairs, cfg)))
	}
	t.Notes = append(t.Notes,
		"paper: almost all benefit arrives with one or two verification roundtrips")
	return t
}

// dslColumns are costColumns and the seconds the session takes on the DSL
// link of the latency table: each byte priced in the direction it travels,
// plus a latency per roundtrip.
var dslColumns = append(costColumns[:len(costColumns):len(costColumns)], "DSL s")

// dslCostRow is costRow with the DSL column of dslColumns.
func dslCostRow(name string, c stats.Costs) Row {
	r := costRow(name, c)
	r.Values = append(r.Values, links[0].l.Duration(&c).Seconds())
	return r
}

// bestConfig is the all-techniques setting used for Table 6.1/6.2.
func bestConfig() core.Config {
	cfg := core.PaperConfig()
	cfg.ContMinBlock = 8
	cfg.Verify = gtest.Config{Batches: 3, GroupSize: 6, TrustedGroupSize: 12, SplitFactor: 3, RetryAlternates: 1}
	return cfg
}

// Table61 regenerates Table 6.1: best results with all techniques on gcc and
// emacs, one column per corpus (total KB).
func Table61(opts Options) *Table {
	t := &Table{
		Title:   "Table 6.1 — best results, all techniques (total KB)",
		Columns: []string{"gcc KB", "emacs KB"},
	}
	profiles := []corpus.SourceTreeProfile{
		corpus.GCCProfile(opts.Scale), corpus.EmacsProfile(opts.Scale),
	}
	methods := []struct {
		name string
		run  func(pairs []pair) stats.Costs
	}{
		{"full transfer (compressed)", fullCosts},
		{"rsync default(700)", func(p []pair) stats.Costs { return rsyncCosts(p, 700) }},
		{"rsync best-block", rsyncBestCosts},
		{"msync basic", func(p []pair) stats.Costs { return msyncCosts(p, core.BasicConfig()) }},
		{"msync all techniques", func(p []pair) stats.Costs { return msyncCosts(p, bestConfig()) }},
		{"cdc dedup (LBFS-style)", func(p []pair) stats.Costs { return cdcCosts(p, cdc.DefaultParams()) }},
		{"pubsig (zsync-style)", pubsigCosts},
		{"vcdiff (RFC 3284)", vcdiffCosts},
		{"delta bound (zdelta-sub)", deltaCosts},
	}
	rows := make([]Row, len(methods))
	for pi, prof := range profiles {
		v1, v2 := corpusPair(prof, opts.Seed)
		pairs, _, _ := changedPairs(v1, v2)
		for mi, m := range methods {
			c := m.run(pairs)
			if pi == 0 {
				rows[mi] = Row{Name: m.name}
			}
			rows[mi].Values = append(rows[mi].Values, stats.KB(c.Total()))
		}
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper shape: msync saves ~2-5x over rsync and lands within ~2x of the delta bound")
	return t
}

// Table62 regenerates Table 6.2: cost of updating the web collection for
// various update frequencies, using the real collection protocol (manifest
// fingerprints detect unchanged pages).
func Table62(opts Options) *Table {
	wc := corpus.NewWebCollection(corpus.DefaultWebProfile(opts.Scale), opts.Seed)
	t := &Table{
		Title:   "Table 6.2 — web collection update cost vs sync interval (KB per sync)",
		Columns: []string{"full KB", "rsync KB", "msync KB", "ms-basic KB", "delta KB", "changed"},
	}
	base := wc.Version(0)
	for _, days := range []int{1, 2, 5, 10} {
		newer := wc.Version(days)
		pairs, _, _ := changedPairs(base, newer)

		full := fullCosts(pairs)
		rs := rsyncCosts(pairs, 700)
		dl := deltaCosts(pairs)
		ms := collectionCosts(base.Map(), newer.Map(), bestConfig(), nil)
		msBasic := collectionCosts(base.Map(), newer.Map(), core.BasicConfig(), nil)

		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("sync every %d night(s)", days),
			Values: []float64{
				stats.KB(full.Total()), stats.KB(rs.Total()),
				stats.KB(ms.Total()), stats.KB(msBasic.Total()),
				stats.KB(dl.Total()),
				float64(len(pairs)),
			},
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d pages; msync columns use the full collection protocol incl. manifest overhead", wc.Pages()),
		"paper shape: msync ~2x better than rsync; simpler few-roundtrip settings stay close to optimal",
		"paper shape: a few MB suffice to maintain 10,000 pages over DSL")
	return t
}

// collectionCosts runs a real collection session over an in-memory pipe —
// tune, if not nil, adjusts the client first — and returns the client's costs.
// The reconstructed collection is compared with newFiles in full, so a mode
// that corrupted even one byte cannot fill a row.
func collectionCosts(oldFiles, newFiles map[string][]byte, cfg core.Config, tune func(*collection.Client)) stats.Costs {
	srv, err := collection.NewServer(newFiles, cfg)
	if err != nil {
		panic(err)
	}
	return sessionCosts(srv, oldFiles, newFiles, tune)
}

// sessionCosts is collectionCosts against a server the caller built, which
// serves newFiles.
func sessionCosts(srv *collection.Server, oldFiles, newFiles map[string][]byte, tune func(*collection.Client)) stats.Costs {
	cli := collection.NewClient(oldFiles)
	if tune != nil {
		tune(cli)
	}
	a, b := transport.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		defer a.Close()
		_, err := srv.ServeContext(context.Background(), a)
		srvErr <- err
	}()
	res, err := cli.SyncContext(context.Background(), b)
	b.Close()
	if err != nil {
		panic(fmt.Sprintf("bench: collection client: %v", err))
	}
	if err := <-srvErr; err != nil {
		panic(fmt.Sprintf("bench: collection server: %v", err))
	}
	if err := corpus.VerifyAgainst(res.Files, newFiles); err != nil {
		panic(fmt.Sprintf("bench: collection session did not converge: %v", err))
	}
	return *res.Costs
}

// AblateCDC sweeps the content-defined-chunking baseline's average chunk
// size, showing where single-roundtrip chunk dedup lands relative to
// msync's multi-round protocol (extension; the LBFS/value-based-caching
// related-work line, paper §4).
func AblateCDC(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{
		Title:   "Ablation — CDC chunk-dedup baseline vs msync (gcc)",
		Columns: costColumns,
	}
	for _, avg := range []int{512, 1024, 2048, 4096} {
		p := cdc.Params{Min: avg / 4, Avg: avg, Max: avg * 8}
		t.Rows = append(t.Rows, costRow(fmt.Sprintf("cdc avg=%d", avg), cdcCosts(pairs, p)))
	}
	t.Rows = append(t.Rows, costRow("msync all-tech", msyncCosts(pairs, bestConfig())))
	t.Rows = append(t.Rows, costRow("rsync default(700)", rsyncCosts(pairs, 700)))
	t.Notes = append(t.Notes,
		"chunk dedup is one roundtrip but cannot exploit sub-chunk similarity;",
		"msync's recursion reaches much finer granularity for fewer bits")
	return t
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AblateDecomposable isolates the decomposable-hash saving on map-phase
// server→client traffic (DESIGN.md ablation A1).
func AblateDecomposable(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{Title: "Ablation — decomposable hashes (gcc)", Columns: costColumns}
	for _, on := range []bool{true, false} {
		cfg := core.BasicConfig()
		cfg.Decomposable = on
		name := "decomposable on"
		if !on {
			name = "decomposable off"
		}
		t.Rows = append(t.Rows, costRow(name, msyncCosts(pairs, cfg)))
	}
	t.Notes = append(t.Notes, "paper: without decomposability, map-phase s2c roughly doubles")
	return t
}

// AblateHashBits sweeps the global-hash slack, trading false candidates
// against hash volume (A3).
func AblateHashBits(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{
		Title:   "Ablation — weak-hash slack bits (gcc)",
		Columns: []string{"total KB", "candidates", "false", "false%"},
	}
	for _, slack := range []uint{2, 4, 6, 8, 10} {
		cfg := core.DefaultConfig()
		cfg.SlackBits = slack
		c := msyncCosts(pairs, cfg)
		falsePct := 0.0
		if c.CandidatesFound > 0 {
			falsePct = 100 * float64(c.FalseCandidates) / float64(c.CandidatesFound)
		}
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("slack=%d bits", slack),
			Values: []float64{stats.KB(c.Total()), float64(c.CandidatesFound),
				float64(c.FalseCandidates), falsePct},
		})
	}
	return t
}

// AblateRounds compares the single-roundtrip mode against the multi-round
// protocol (A4, paper §7).
func AblateRounds(opts Options) *Table {
	v1, v2 := corpusPair(corpus.GCCProfile(opts.Scale), opts.Seed)
	pairs, _, _ := changedPairs(v1, v2)
	t := &Table{Title: "Ablation — roundtrips vs bandwidth (gcc)", Columns: costColumns}
	for _, bs := range []int{256, 512, 1024} {
		t.Rows = append(t.Rows, costRow(fmt.Sprintf("one-shot b=%d", bs),
			msyncCosts(pairs, core.OneShotConfig(bs))))
	}
	t.Rows = append(t.Rows, costRow("multi-round basic", msyncCosts(pairs, core.BasicConfig())))
	t.Rows = append(t.Rows, costRow("multi-round all-tech", msyncCosts(pairs, bestConfig())))
	t.Notes = append(t.Notes, "paper §7: with 1-2 roundtrips it is hard to beat rsync by much")
	return t
}
