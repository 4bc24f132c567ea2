// Round budgets chosen from the link characteristics, the paper's §7
// "future work": multi-round map construction for slow links, one-shot for
// high-latency ones. The rule msync documents is measured, not guessed: a
// single-shot exchange (OneShotConfig(512)) wins once one roundtrip is worth
// more than about 512 KB of the link's downstream capacity; below that the
// default wins.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"msync"
	"msync/internal/corpus"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// A lightly edited file.
	oldSimilar := corpus.SourceText(rng, 300_000)
	newSimilar := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 60, BurstSpread: 400}.
		Apply(rng, oldSimilar)

	// Link-aware mode choice: estimate sync times for the edited file.
	fmt.Println("=== round budget vs link characteristics ===")
	links := []struct {
		name string
		l    msync.LinkModel
	}{
		{"DSL 1M/256k 80ms", msync.LinkModel{DownBps: 125_000, UpBps: 32_000, RTT: 80 * time.Millisecond}},
		{"SAT 10M 600ms", msync.LinkModel{DownBps: 1_250_000, UpBps: 1_250_000, RTT: 600 * time.Millisecond}},
	}
	modes := []struct {
		name string
		cfg  msync.Config
	}{
		{"multi-round (default)", msync.DefaultConfig()},
		{"one-shot b=512", msync.OneShotConfig(512)},
	}
	// Roundtrips amortize across a collection (every changed file shares
	// them), so evaluate both a single file and a 200-file collection.
	for _, scenario := range []struct {
		name  string
		files int
	}{
		{"single file", 1},
		{"200-file collection", 200},
	} {
		fmt.Printf("\n-- %s --\n", scenario.name)
		fmt.Printf("%-24s %12s %8s", "mode", "bytes", "rtrips")
		for _, lk := range links {
			fmt.Printf(" %18s", lk.name)
		}
		fmt.Println()
		for _, m := range modes {
			res, err := msync.SyncFile(oldSimilar, newSimilar, m.cfg)
			if err != nil {
				log.Fatal(err)
			}
			// Scale byte volume by the file count; the roundtrip count is a
			// property of the session, not of each file.
			costs := res.Costs
			for i := 1; i < scenario.files; i++ {
				costs.Merge(&res.Costs)
				costs.Roundtrips = res.Costs.Roundtrips
			}
			fmt.Printf("%-24s %12d %8d", m.name, costs.Total(), costs.Roundtrips)
			for _, lk := range links {
				fmt.Printf(" %17.2fs", lk.l.Duration(&costs).Seconds())
			}
			fmt.Println()
		}
	}
	fmt.Println("\nfor single small files the roundtrips dominate and one-shot wins;")
	fmt.Println("across a collection they amortize and multi-round's byte savings win —")
	fmt.Println("unless the link is so high-latency that one-shot stays ahead (paper §7).")
}
