package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tinyOpts keeps experiment corpora very small for the unit tests; the
// shape assertions below must hold even at this scale.
var tinyOpts = Options{Scale: 0.12, Seed: 42}

var updateTables = flag.Bool("update", false, "rewrite "+tablesGolden)

// tablesGolden records every experiment's table at tinyOpts. The tables are
// deterministic at a seed, so any difference is a change in what the engines
// send, or in a baseline's byte count.
const tablesGolden = "testdata/tables.golden"

// goldenSection renders a table for tablesGolden: its id, title, columns and
// every row's name and values at full precision, one line each. ablate.cpu's
// MB/s column is a wall-clock reading, which no two runs agree on; it is
// written as "-".
func goldenSection(id string, table *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\ntitle\t%s\ncolumns\t%s\n", id, table.Title, strings.Join(table.Columns, "\t"))
	for _, r := range table.Rows {
		b.WriteString("row\t" + r.Name)
		for j, v := range r.Values {
			if id == "ablate.cpu" && j == 0 {
				b.WriteString("\t-")
			} else {
				b.WriteString("\t" + strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// readGolden splits tablesGolden into its sections by experiment id.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(tablesGolden)
	if err != nil {
		if *updateTables && os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			id = strings.TrimSuffix(name, "\n")
		}
		sections[id] += line
	}
	return sections
}

func runFor(t *testing.T, id string) *Table {
	t.Helper()
	table, err := Run(id, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if table.Title == "" || len(table.Rows) == 0 || len(table.Columns) == 0 {
		t.Fatalf("%s: malformed table %+v", id, table)
	}
	for _, r := range table.Rows {
		if len(r.Values) != len(table.Columns) {
			t.Fatalf("%s: row %q has %d values for %d columns", id, r.Name, len(r.Values), len(table.Columns))
		}
	}
	return table
}

// total extracts the "total KB" column (index 3 in cost tables).
func total(t *testing.T, table *Table, name string) float64 {
	t.Helper()
	for _, r := range table.Rows {
		if r.Name == name {
			return r.Values[3]
		}
	}
	t.Fatalf("row %q not found in %q", name, table.Title)
	return 0
}

// TestAllExperimentsRun runs every experiment at tinyOpts and holds its table
// to tablesGolden; -update rewrites the file once every experiment has run.
func TestAllExperimentsRun(t *testing.T) {
	want := readGolden(t)
	for id := range want {
		if _, ok := registry[id]; !ok && !*updateTables {
			t.Errorf("%s holds a table for %q, which is no experiment", tablesGolden, id)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Cleanup(func() {
		if !*updateTables {
			return
		}
		if len(got) != len(registry) {
			t.Fatalf("-update ran %d of %d experiments; run them all", len(got), len(registry))
		}
		var b strings.Builder
		for _, id := range Experiments() {
			b.WriteString(got[id])
		}
		if err := os.WriteFile(tablesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			table := runFor(t, id)
			var buf bytes.Buffer
			table.Render(&buf)
			if !strings.Contains(buf.String(), table.Title) {
				t.Fatal("render lost the title")
			}
			sec := goldenSection(id, table)
			mu.Lock()
			got[id] = sec
			mu.Unlock()
			if !*updateTables && sec != want[id] {
				t.Errorf("table differs from %s (-update rewrites it)\nwant:\n%sgot:\n%s", tablesGolden, want[id], sec)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig9.9", tinyOpts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestFig61Shape: the paper's core comparisons must hold — a reasonable
// msync setting beats rsync, and the delta bound beats everything.
func TestFig61Shape(t *testing.T) {
	table := runFor(t, "fig6.1")
	rsync := total(t, table, "rsync default(700)")
	best := 1e18
	for _, r := range table.Rows {
		if strings.HasPrefix(r.Name, "basic bmin=") && r.Values[3] < best {
			best = r.Values[3]
		}
	}
	deltaBound := total(t, table, "delta bound (zdelta-sub)")
	if best >= rsync {
		t.Fatalf("best msync %.1f not below rsync %.1f", best, rsync)
	}
	if deltaBound >= best {
		t.Fatalf("delta bound %.1f not below msync %.1f", deltaBound, best)
	}
	// The block-size sweep is U-shaped: the largest block size is worse
	// than the best choice.
	coarse := total(t, table, "basic bmin=1024")
	if coarse <= best {
		t.Fatalf("bmin=1024 (%.1f) should lose to the sweep best (%.1f)", coarse, best)
	}
}

// TestTable61Shape: ordering of methods on both corpora.
func TestTable61Shape(t *testing.T) {
	table := runFor(t, "table6.1")
	for col := 0; col < 2; col++ {
		get := func(name string) float64 {
			for _, r := range table.Rows {
				if r.Name == name {
					return r.Values[col]
				}
			}
			t.Fatalf("row %q missing", name)
			return 0
		}
		full := get("full transfer (compressed)")
		rsync := get("rsync default(700)")
		msyncAll := get("msync all techniques")
		deltaBound := get("delta bound (zdelta-sub)")
		if !(deltaBound < msyncAll && msyncAll < rsync && rsync < full) {
			t.Fatalf("col %d ordering violated: delta %.1f msync %.1f rsync %.1f full %.1f",
				col, deltaBound, msyncAll, rsync, full)
		}
	}
}

// TestAblateDecomposableShape: turning decomposability off must increase
// map-phase server→client traffic.
func TestAblateDecomposableShape(t *testing.T) {
	table := runFor(t, "ablate.decomp")
	var on, off float64
	for _, r := range table.Rows {
		switch r.Name {
		case "decomposable on":
			on = r.Values[0]
		case "decomposable off":
			off = r.Values[0]
		}
	}
	if on >= off {
		t.Fatalf("decomposable on (%.2f KB s2c) not below off (%.2f KB)", on, off)
	}
}

// TestAblateBitsShape: more slack bits, fewer false candidates.
func TestAblateBitsShape(t *testing.T) {
	table := runFor(t, "ablate.bits")
	first := table.Rows[0].Values[3]                // false% at slack=2
	last := table.Rows[len(table.Rows)-1].Values[3] // at slack=10
	if last >= first {
		t.Fatalf("false-candidate rate did not fall with slack: %.1f%% -> %.1f%%", first, last)
	}
}

// TestTable62Shape: costs grow with the sync interval and msync sits
// between rsync and the delta bound.
func TestTable62Shape(t *testing.T) {
	table := runFor(t, "table6.2")
	prev := 0.0
	for _, r := range table.Rows {
		full, rsync, msync, deltaB := r.Values[0], r.Values[1], r.Values[2], r.Values[4]
		if msync >= rsync || msync >= full {
			t.Fatalf("%s: msync %.1f should beat rsync %.1f and full %.1f", r.Name, msync, rsync, full)
		}
		if deltaB >= msync {
			t.Fatalf("%s: delta bound %.1f not below msync %.1f", r.Name, deltaB, msync)
		}
		if full < prev {
			t.Fatalf("full-transfer cost fell as the interval grew")
		}
		prev = full
	}
}

// TestLatencyShape: on the satellite link, one-shot must close most of the
// roundtrip-time gap against the all-technique setting.
func TestLatencyShape(t *testing.T) {
	table := runFor(t, "ablate.latency")
	var allTech, oneShot Row
	for _, r := range table.Rows {
		switch r.Name {
		case "msync all-tech":
			allTech = r
		case "msync one-shot b=512":
			oneShot = r
		}
	}
	// Column layout: bytes, rtrips, DSL, LAN, SAT. The structural trade-off:
	// one-shot spends more bytes but far fewer roundtrips, so it wins on the
	// high-latency link. (Whether multi-round wins on DSL depends on corpus
	// size relative to the RTT; asserted only at full scale in EXPERIMENTS.md.)
	if oneShot.Values[0] <= allTech.Values[0] {
		t.Fatalf("one-shot bytes (%.1f KB) should exceed all-tech (%.1f KB)",
			oneShot.Values[0], allTech.Values[0])
	}
	if oneShot.Values[1] >= allTech.Values[1] {
		t.Fatalf("one-shot roundtrips (%.0f) should be fewer than all-tech (%.0f)",
			oneShot.Values[1], allTech.Values[1])
	}
	satAll, satOne := allTech.Values[4], oneShot.Values[4]
	if satOne >= satAll {
		t.Fatalf("on SAT, one-shot (%.2fs) should beat multi-round (%.2fs)", satOne, satAll)
	}
}

func TestRenderCSV(t *testing.T) {
	table := &Table{
		Title:   "T, with comma",
		Columns: []string{"a KB", "b"},
		Rows:    []Row{{Name: "row, one", Values: []float64{1.5, 2}}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	table.RenderCSV(&buf)
	out := buf.String()
	for _, want := range []string{"# T, with comma\n", "name,a KB,b\n", "row; one,1.500,2.000\n", "# a note\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestAblateManifestShape: tree detection must beat the flat manifest when
// few files changed.
func TestAblateManifestShape(t *testing.T) {
	table := runFor(t, "ablate.manifest")
	first := table.Rows[0] // fewest changes
	if first.Values[1] >= first.Values[0] {
		t.Fatalf("tree (%.1f KB) not below manifest (%.1f KB) at minimal change",
			first.Values[1], first.Values[0])
	}
}

// TestAblateDetectShape: group-tested sums send a flat session's manifest in
// fewer bytes up than full sums, for a few more down (one MD4 per 64 unchanged
// files) and in as many roundtrips. The table is the group-tested session byte
// for byte on the smallest collection, whose MANIFEST_SHORT is too short to
// replace, and sends fewer bytes up and down than it on the largest, in as
// many roundtrips; in between it is one or the other. A hit by reference
// sends the same few bytes up in two roundtrips whatever the collection's
// size, and a miss costs the group-tested flat session one roundtrip more. The
// tree sends less up than the group-tested flat list, in more roundtrips, and
// speculative descent takes fewer of them than the one-level descent.
func TestAblateDetectShape(t *testing.T) {
	rows := runFor(t, "ablate.detect").Rows
	if len(rows)%8 != 0 {
		t.Fatalf("%d rows, want 8 a size", len(rows))
	}
	for i := 0; i+7 < len(rows); i += 8 {
		full, flat, table, hit := rows[i].Values, rows[i+1].Values, rows[i+2].Values, rows[i+3].Values
		if flat[0] >= full[0] || flat[1] <= full[1] || flat[1] > full[1]+full[1]/4 || flat[2] != full[2] {
			t.Fatalf("%s: %v against full sums' %v", rows[i+1].Name, flat, full)
		}
		same := slices.Equal(table, flat)
		fewer := table[0] < flat[0] && table[1] < flat[1] && table[2] == flat[2]
		if i == 0 && !same || i+8 == len(rows) && !fewer || !same && !fewer {
			t.Fatalf("%s: %v against the group-tested session's %v", rows[i+2].Name, table, flat)
		}
		if hit[0] != rows[3].Values[0] || hit[0] > 96 || hit[2] != 2 {
			t.Fatalf("%s: %.0f bytes up in %.0f roundtrips, want the %.0f of the smallest collection in 2",
				rows[i+3].Name, hit[0], hit[2], rows[3].Values[0])
		}
		for _, miss := range rows[i+4 : i+6] {
			if miss.Values[2] != flat[2]+1 || miss.Values[0] > flat[0]+32 {
				t.Fatalf("%s: %.0f bytes up in %.0f roundtrips against the flat session's %.0f in %.0f",
					miss.Name, miss.Values[0], miss.Values[2], flat[0], flat[2])
			}
		}
		tree, spec := rows[i+6].Values, rows[i+7].Values
		if tree[0] >= flat[0] || tree[2] <= flat[2] || spec[0] >= flat[0] || spec[2] >= tree[2] {
			t.Fatalf("%s: %v and %s: %v against the group-tested flat session's %v",
				rows[i+6].Name, tree, rows[i+7].Name, spec, flat)
		}
	}
}

// TestAblateCDCShape: msync must beat the chunk-dedup baseline at every
// chunk size (it exploits sub-chunk similarity).
func TestAblateCDCShape(t *testing.T) {
	table := runFor(t, "ablate.cdc")
	ms, ok := 0.0, false
	for _, r := range table.Rows {
		if r.Name == "msync all-tech" {
			ms, ok = r.Values[3], true
		}
	}
	if !ok {
		t.Fatal("msync row missing")
	}
	for _, r := range table.Rows {
		if strings.HasPrefix(r.Name, "cdc avg=") && r.Values[3] <= ms {
			t.Fatalf("%s (%.1f KB) beat msync (%.1f KB)", r.Name, r.Values[3], ms)
		}
	}
}

func TestTableGet(t *testing.T) {
	table := &Table{Rows: []Row{{Name: "a", Values: []float64{7}}}}
	if v, ok := table.Get("a"); !ok || v != 7 {
		t.Fatal("Get")
	}
	if _, ok := table.Get("missing"); ok {
		t.Fatal("missing row found")
	}
}
