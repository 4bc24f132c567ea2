package delta

import (
	"math/rand"
	"testing"

	"msync/internal/corpus"
)

// largePairs are the three big_* file shapes (benchmark/README.md) from the
// internal/corpus profiles, one file each, cut two ways. "delta" is what
// ServerFile.EmitDelta hands the encoder for a 2 MB file: 1.8 MB of the old
// version as the known bytes, the last 0.5 MB of the new version — appended
// rows, appended log lines, image blocks — as the gaps. "whole" is the first
// 2 MB of each version, the kind of pair benchmark/layers.go replays.
func largePairs() []pair {
	const seed = 42
	db := corpus.DefaultDBDumpProfile(1)
	db.Files, db.MeanSize, db.PruneProb, db.AppendFrac = 1, 4<<20, 1, 0.25
	vm := corpus.DefaultVMImageProfile(1)
	vm.Files, vm.MeanSize, vm.RewriteFrac = 1, 4<<20, 0.25
	log := corpus.DefaultHeavyLogProfile(1)
	log.Files, log.MeanSize, log.RotateProb = 1, 4<<20, 1

	var ps []pair
	add := func(name string, t1, t2 *corpus.Tree) {
		v1, v2 := t1.Files[0].Data, t2.Files[0].Data
		ps = append(ps,
			pair{name + "/delta-1.8M-0.5M", v1[:1800<<10], v2[len(v2)-(512<<10):]},
			pair{name + "/whole-2M-2M", v1[:2<<20], v2[:2<<20]})
	}
	t1, t2 := db.Generate(seed)
	add("dbdump", t1, t2)
	t1, t2 = vm.Generate(seed)
	add("vmimage", t1, t2)
	t1, t2 = log.Generate(seed)
	add("heavylog", t1, t2)
	return ps
}

// smallPairs are what src_cold's changed files look like to the encoder:
// source text with a few edit bursts.
func smallPairs() []pair {
	rng := rand.New(rand.NewSource(11))
	em := corpus.EditModel{BurstsPer32KB: 64, BurstEdits: 3, EditSize: 20, BurstSpread: 100}
	ref20 := corpus.SourceText(rng, 20<<10)
	ref1 := corpus.SourceText(rng, 1<<10)
	return []pair{
		{"20K-4K", ref20, em.Apply(rng, ref20[8<<10:12<<10])},
		{"1K-1K", ref1, em.Apply(rng, ref1)},
	}
}

var sinkLen int

func benchEncode(b *testing.B, ps []pair) {
	for _, p := range ps {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(p.target)))
			b.ReportAllocs()
			Encode(p.ref, p.target) // steady state: the pooled matcher is warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLen += len(Encode(p.ref, p.target))
			}
		})
	}
}

// BenchmarkEncodeLarge: the delta phase of a 2 MB file, in MB/s of target.
func BenchmarkEncodeLarge(b *testing.B) { benchEncode(b, largePairs()) }

// BenchmarkEncodeSmall: the index build and reset a small file pays, which
// src_cold pays 168 times a session.
func BenchmarkEncodeSmall(b *testing.B) { benchEncode(b, smallPairs()) }
