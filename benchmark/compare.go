package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// exactMetrics repeat exactly between two runs of one commit on one seed, so
// -compare treats any difference in them as a change, whatever their bound.
var exactMetrics = map[string]bool{
	"wire_bytes_per_session": true,
	"roundtrips_per_session": true,
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them; it needs two values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// minRuns is how many runs a side needs before its quartiles say anything
// about its scatter; with fewer, a metric that does not repeat exactly is
// unresolved.
const minRuns = 4

// spread is the distance between the quartiles as a share of the median: the
// measure the benchmark's bounds are held against. It needs minRuns values.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func loadRecord(path string) (*suiteRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec suiteRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

func (wr *workloadRecord) values(metric string) []float64 {
	var v []float64
	for _, r := range wr.Runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict judges one metric of one workload. All end-to-end metrics are
// lower-is-better.
func verdict(d metricDecl, base, cur []float64) string {
	b, c := median(base), median(cur)
	switch {
	case len(base) == 0 || len(cur) == 0:
		return "unresolved"
	case exactMetrics[d.Name] && c == b:
		return "same"
	case exactMetrics[d.Name] && c > b:
		return "worse"
	case exactMetrics[d.Name]:
		return "better"
	case len(base) < minRuns || len(cur) < minRuns:
		return "unresolved" // too few runs to know the scatter: any verdict would be a guess
	case c > b*(1+d.Bound):
		return "worse"
	case c < b*(1-d.Bound):
		return "better"
	case spread(base) > d.Bound || spread(cur) > d.Bound:
		return "unresolved" // the runs scatter more than the bound: "same" would be a guess
	default:
		return "same"
	}
}

// compareFiles prints one row per workload and end-to-end metric and reports
// whether any is worse. A failed session on the new side is worse too.
func compareFiles(w io.Writer, basePath, newPath string) (worse bool, err error) {
	base, err := loadRecord(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadRecord(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d)  new %s (commit %s, seed %d)\n",
		basePath, base.Host.Commit, base.Seed, newPath, cur.Host.Commit, cur.Seed)
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %16s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, wl := range workloads {
		bw, cw := base.Workloads[wl.name], cur.Workloads[wl.name]
		if bw == nil || cw == nil {
			fmt.Fprintf(w, "%-13s missing from one record: unresolved\n", wl.name)
			continue
		}
		for _, r := range cw.Runs {
			if r.Result.Failed > 0 {
				fmt.Fprintf(w, "%-13s %d of %d sessions failed: worse\n", wl.name, r.Result.Failed, r.Result.Attempted)
				worse = true
			}
		}
		for _, d := range endToEnd {
			b, c := bw.values(d.Name), cw.values(d.Name)
			v := verdict(d, b, c)
			worse = worse || v == "worse"
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if exactMetrics[d.Name] {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-13s %-24s %14.6g %14.6g %7.4f of base %7s  %s\n",
				wl.name, d.Name, median(b), median(c), median(c)/median(b), bound, v)
		}
	}
	return worse, nil
}
