package msync

import (
	"bytes"
	"fmt"

	"msync/internal/cdc"
	"msync/internal/gtest"
)

// Advice is a recommended configuration plus the reasoning behind it.
type Advice struct {
	Config Config
	// Similarity is the estimated fraction of the new content already
	// present at the client (0..1), from a content-defined chunk overlap
	// probe.
	Similarity float64
	// Rationale explains the choice in one or two sentences.
	Rationale string
}

// Recommend picks protocol parameters from a sample of the data and the
// link characteristics — the adaptive tool the paper's conclusion calls for
// ("choose the best set of parameters and number of roundtrips based on the
// characteristics of the data set and communication link").
//
// sampleOld/sampleNew should be a representative old/new version pair (a
// typical changed file, or concatenated fragments). link describes the
// connection; a zero LinkModel means "bandwidth-bound, latency negligible".
func Recommend(sampleOld, sampleNew []byte, link LinkModel) Advice {
	sim := estimateSimilarity(sampleOld, sampleNew)
	// Shared content that no longer sits at its old offsets is the signature
	// of insert/delete-heavy edits: recursive halving's fixed power-of-two
	// grid misses it, content-defined boundaries follow it.
	shifted := sim > 0.2 && alignedSimilarity(sampleOld, sampleNew) < sim/2

	// How many bytes one roundtrip is worth on this link.
	bytesPerRTT := 0.0
	if link.RTT > 0 && link.DownBps > 0 {
		bytesPerRTT = link.DownBps * link.RTT.Seconds()
	}

	switch {
	case sim < 0.05:
		// Nothing shared: map construction is wasted work. Go single-shot
		// with adaptive stopping as a backstop for mixed collections.
		cfg := OneShotConfig(1024)
		cfg.Adaptive = true
		cfg.AdaptiveMinBlock = 1024
		cfg.AdaptiveFactor = 4
		return Advice{cfg, sim, fmt.Sprintf(
			"only %.0f%% of the new content is present at the client; "+
				"skip multi-round mapping and send deltas directly", sim*100)}

	case bytesPerRTT > 512<<10:
		// Extreme latency-bandwidth product (satellite-class): roundtrips
		// dominate any byte savings for moderate collections.
		cfg := OneShotConfig(512)
		return Advice{cfg, sim, fmt.Sprintf(
			"one roundtrip costs ~%.0f KB of link capacity; a single-shot "+
				"exchange beats multi-round mapping", bytesPerRTT/1024)}

	case bytesPerRTT > 64<<10:
		// High-latency link: keep the recursion, which the default does
		// with one verification batch per round.
		return Advice{DefaultConfig(), sim, fmt.Sprintf(
			"latency is significant (~%.0f KB per roundtrip); multi-round "+
				"mapping with a single verification batch per round", bytesPerRTT/1024)}

	case sim > 0.6:
		// Highly similar versions on a bandwidth-bound link: recurse deep,
		// verify patiently — every saved byte counts.
		cfg := DefaultConfig()
		cfg.MinBlockSize = 64
		cfg.ContMinBlock = 8
		cfg.Verify = gtest.Config{Batches: 3, GroupSize: 6, TrustedGroupSize: 12, SplitFactor: 3, RetryAlternates: 1}
		if shifted {
			cfg.MapMode = MapCDC
			return Advice{cfg, sim, fmt.Sprintf(
				"~%.0f%% of the new content is already at the client but has "+
					"shifted off its old offsets; content-defined boundaries "+
					"(CDC map mode) follow the moved content", sim*100)}
		}
		return Advice{cfg, sim, fmt.Sprintf(
			"~%.0f%% of the new content is already at the client; deep "+
				"recursion and continuation probes pay for themselves", sim*100)}

	default:
		cfg := DefaultConfig()
		if shifted {
			cfg.MapMode = MapCDC
			return Advice{cfg, sim, fmt.Sprintf(
				"moderate similarity (%.0f%%) with the shared content shifted "+
					"off its old offsets; content-defined boundaries (CDC map "+
					"mode) follow the moved content", sim*100)}
		}
		return Advice{cfg, sim, fmt.Sprintf(
			"moderate similarity (%.0f%%) on a bandwidth-bound link; the "+
				"default multi-round settings apply", sim*100)}
	}
}

// estimateSimilarity measures chunk-level content overlap via
// content-defined chunking — cheap (two linear passes) and alignment-proof.
func estimateSimilarity(old, cur []byte) float64 {
	if len(cur) == 0 {
		return 1
	}
	if len(old) == 0 {
		return 0
	}
	n := min(len(old), len(cur))
	// Samples around the chunker's 48-byte rolling window degenerate into a
	// single whole-buffer chunk per side, so chunk overlap carries no signal
	// (two same-length unrelated samples would read as ~100% similar).
	// Compare the bytes directly instead.
	if n < 128 {
		if bytes.Equal(old, cur) {
			return 1
		}
		return 0
	}
	p := cdc.Params{Min: 64, Avg: 256, Max: 2048}
	if n < 4096 {
		// Short samples get finer chunks so the estimate still averages over
		// a few dozen of them instead of a handful.
		p = cdc.Params{Min: 64, Avg: 128, Max: 1024}
	}
	oldChunks, err := cdc.ChunksE(old, p)
	if err != nil {
		return 0
	}
	curChunks, err := cdc.ChunksE(cur, p)
	if err != nil {
		return 0
	}
	have := map[[16]byte]bool{}
	for _, c := range oldChunks {
		have[c.Sum] = true
	}
	sharedBytes := 0
	for _, c := range curChunks {
		if have[c.Sum] {
			sharedBytes += c.Len
		}
	}
	return float64(sharedBytes) / float64(len(cur))
}

// alignedSimilarity measures how much of cur matches old at the very same
// offsets, on the fixed 512-byte grid recursive halving's boundaries align
// to. High chunk overlap with low aligned overlap means the shared content
// survived but moved — the workload where CDC map construction wins.
func alignedSimilarity(old, cur []byte) float64 {
	const grid = 512
	n := min(len(old), len(cur))
	if n == 0 {
		if len(cur) == 0 {
			return 1
		}
		return 0
	}
	if n < grid {
		if bytes.Equal(old[:n], cur[:n]) {
			return 1
		}
		return 0
	}
	same, total := 0, 0
	for off := 0; off+grid <= n; off += grid {
		total++
		if bytes.Equal(old[off:off+grid], cur[off:off+grid]) {
			same++
		}
	}
	return float64(same) / float64(total)
}
