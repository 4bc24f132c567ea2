package bench

import (
	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
)

// The cdc.map table: halving vs CDC map construction over the adversarial
// boundary-shift corpora (internal/corpus/adversarial.go, DESIGN.md §16).
// Every arm runs a full collection session and is convergence-verified
// (collectionCosts). The per-scenario winner shows which churn shape favours
// which mode; choosing the mode is left to whoever knows the collection's
// churn.

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
		halving := collectionCosts(v1.Map(), v2.Map(), core.DefaultConfig(), nil)
		cdc := collectionCosts(v1.Map(), v2.Map(), core.DefaultConfig(),
			func(c *collection.Client) { c.MapMode = core.MapCDC })
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
