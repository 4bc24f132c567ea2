package bench

import (
	"fmt"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
)

// The cdc.map table: halving vs CDC map construction over the adversarial
// boundary-shift corpora (internal/corpus/adversarial.go, DESIGN.md §16).
// Every arm runs a full collection session and is convergence-verified; the
// per-scenario winner is what advisor.Recommend's shift detection encodes.

// cdcScenarios are the table's rows. logs-heavy and dbdump are the acceptance
// scenarios (CDC must beat halving on total wire bytes); vmimage and
// binrelease bound the mode's behavior on block-aligned and section-shifted
// binaries.
var cdcScenarios = []struct {
	name     string
	generate func(scale float64, seed int64) (v1, v2 *corpus.Tree)
}{
	{"logs-heavy", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultHeavyLogProfile(s).Generate(seed)
	}},
	{"dbdump", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultDBDumpProfile(s).Generate(seed)
	}},
	{"vmimage", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultVMImageProfile(s).Generate(seed)
	}},
	{"binrelease", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultBinaryReleaseProfile(s).Generate(seed)
	}},
}

// runCDCArm syncs v1 toward v2 over a pipe in the given mode and returns the
// client's costs. The convergence check compares the full reconstructed
// collection, so a mode that corrupted even one byte cannot win a row.
func runCDCArm(v1, v2 *corpus.Tree, mode core.MapMode) (*stats.Costs, error) {
	srv, err := collection.NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cli := collection.NewClient(v1.Map())
	cli.MapMode = mode

	a, b := transport.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		defer a.Close()
		_, err := srv.Serve(a)
		srvErr <- err
	}()
	res, err := cli.Sync(b)
	b.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: cdc client (%s): %w", mode, err)
	}
	if err := <-srvErr; err != nil {
		return nil, fmt.Errorf("bench: cdc server (%s): %w", mode, err)
	}
	if err := collection.VerifyAgainst(res.Files, v2.Map()); err != nil {
		return nil, fmt.Errorf("bench: cdc arm (%s) did not converge: %w", mode, err)
	}
	return res.Costs, nil
}

// CDCMap runs both map modes over every adversarial scenario.
func CDCMap(opts Options) *Table {
	t := &Table{
		Title:   "Extension — CDC map construction vs recursive halving (adversarial corpora)",
		Columns: []string{"halving B", "cdc B", "cdc/halving", "halving rt", "cdc rt", "cdc chunks"},
		Notes: []string{
			"wire bytes are whole-session totals, both directions, framing included; every arm is convergence-verified",
			"cdc/halving < 1 means content-defined boundaries beat the power-of-two grid",
		},
	}
	for _, sc := range cdcScenarios {
		v1, v2 := sc.generate(opts.Scale, opts.Seed)
		var arms [2]*stats.Costs
		for i, mode := range []core.MapMode{core.MapHalving, core.MapCDC} {
			var err error
			if arms[i], err = runCDCArm(v1, v2, mode); err != nil {
				panic(fmt.Sprintf("bench: cdc map %s: %v", sc.name, err))
			}
		}
		halving, cdc := arms[0], arms[1]
		t.Rows = append(t.Rows, Row{
			Name: sc.name,
			Values: []float64{
				float64(halving.Total()), float64(cdc.Total()),
				float64(cdc.Total()) / float64(halving.Total()),
				float64(halving.Roundtrips), float64(cdc.Roundtrips),
				float64(cdc.CDCChunks),
			},
		})
	}
	return t
}
