// Command msbench regenerates the paper's evaluation tables and figures
// (Section 6) plus this repository's ablations on synthetic corpora.
//
// Usage:
//
//	msbench                      # run everything at default scale
//	msbench -exp fig6.1          # one experiment
//	msbench -scale 2 -seed 7     # bigger corpus, different seed
//	msbench -list                # list experiment ids
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"msync/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (default: all)")
		scale = flag.Float64("scale", 1.0, "corpus scale factor")
		seed  = flag.Int64("seed", 42, "corpus seed")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	opts := bench.Options{Scale: *scale, Seed: *seed}

	ids := bench.Experiments()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		table, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csv {
			table.RenderCSV(os.Stdout)
			fmt.Println()
			continue
		}
		table.Render(os.Stdout)
		fmt.Printf("  [%s in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}
