// Package core implements the paper's primary contribution: the two-phase
// file synchronization framework (map construction + delta compression) with
// recursive block splitting, optimized group-testing match verification,
// continuation hashes, and decomposable hash functions.
//
// The package exposes two per-file protocol engines, ServerFile (holds the
// current version) and ClientFile (holds the outdated version and wants the
// current one). The engines are message-level state machines: a driver — the
// collection layer for real connections, SyncLocal for experiments — moves
// byte sections between them in lockstep. Everything both sides must agree
// on (round plans, block splits, verification group structure) is derived
// from *shared* state by identical code paths in state.go, so the wire
// carries almost nothing but hash bits and bitmaps.
package core

import (
	"fmt"
	"math/bits"

	"msync/internal/cdc"
	"msync/internal/gtest"
)

// MapMode selects the map-construction strategy of a session.
type MapMode int

const (
	// MapHalving is the paper's recursive halving: fixed power-of-two block
	// boundaries split in half each round. The default, and the only mode
	// legacy peers understand.
	MapHalving MapMode = 0
	// MapCDC derives block boundaries from content-defined chunk cuts
	// (internal/cdc) instead of fixed offsets. Insertions and deletions
	// perturb only nearby chunks, so shift-heavy edits keep matching;
	// the trade-off is that chunk lengths must travel with the hashes.
	MapCDC MapMode = 1
)

// String names the mode the way ParseMapMode accepts it.
func (m MapMode) String() string {
	switch m {
	case MapHalving:
		return "halving"
	case MapCDC:
		return "cdc"
	default:
		return fmt.Sprintf("mapmode(%d)", int(m))
	}
}

// ParseMapMode parses a mode name as accepted by the -map-mode flag:
// "halving" (or "") and "cdc".
func ParseMapMode(s string) (MapMode, error) {
	switch s {
	case "", "halving":
		return MapHalving, nil
	case "cdc":
		return MapCDC, nil
	default:
		return 0, fmt.Errorf("core: unknown map mode %q (want halving or cdc)", s)
	}
}

// Config tunes the synchronization protocol. The zero value is not valid;
// start from DefaultConfig or BasicConfig.
type Config struct {
	// MaxBlockSize is the initial (largest) block size; a power of two.
	MaxBlockSize int
	// MinBlockSize is the smallest block size for which global hashes are
	// sent; a power of two.
	MinBlockSize int
	// ContMinBlock is the smallest continuation (extension) probe size;
	// 0 disables continuation hashes. Probes keep halving after global
	// recursion stops, down to this size.
	ContMinBlock int
	// ContBits is the width of a continuation hash in bits.
	ContBits uint
	// SlackBits is added to the 2*log2(n/b) global-hash width (paper §5.3).
	SlackBits uint
	// MinHashBits/MaxHashBits clamp the global hash width.
	MinHashBits, MaxHashBits uint
	// VerifyBits is the width of a verification hash (truncated MD5).
	VerifyBits uint
	// Verify configures the group-testing verification strategy.
	Verify gtest.Config
	// Decomposable suppresses transmission of hash bits derivable from
	// parent and sibling hashes.
	Decomposable bool
	// MaxAlternates bounds how many alternative source offsets the client
	// remembers per candidate (for retry-on-failed-verification); at most
	// maxAlternates.
	MaxAlternates int
	// Workers bounds the parallelism of CPU-heavy engine work: sharded
	// old-file scans and batched verification hashing (and, at the
	// collection layer, per-file engine fan-out). 0 (the default) means
	// runtime.GOMAXPROCS(0); 1 selects the exact serial legacy path. This
	// is purely a local execution knob — wire output is bit-identical for
	// every value, and it is never serialized into the protocol config.
	Workers int
	// MapMode selects the map-construction strategy: MapHalving (default,
	// the paper's recursive halving) or MapCDC (content-defined chunk
	// boundaries). At the collection layer the mode is negotiated per
	// session via a hello extension; it is serialized into the protocol
	// config only when nonzero, so legacy sessions stay byte-identical.
	MapMode MapMode
}

// DefaultConfig enables all the paper's techniques, tuned for a slow link on
// which one roundtrip costs as much as ~10 KB sent down: PaperConfig with one
// verification batch a round (global candidates in pairs, continuation ones
// in eights, no salvage batch), so a round is one cycle, and continuation
// probes that stop at 32 bytes, one level above the paper's.
func DefaultConfig() Config {
	c := PaperConfig()
	c.ContMinBlock = 32
	c.Verify = gtest.Config{Batches: 1, GroupSize: 2, TrustedGroupSize: 8, SplitFactor: 2}
	return c
}

// PaperConfig is the paper's own practical setting (§5.3, §6): continuation
// hashes down to 16 bytes, two verification batches with growing groups and
// binary salvage splits, decomposable hashes. The byte-pinned transcripts and
// the paper's tables run on it.
func PaperConfig() Config {
	return Config{
		MaxBlockSize: 2048,
		MinBlockSize: 128,
		ContMinBlock: 16,
		ContBits:     8,
		SlackBits:    6,
		MinHashBits:  10,
		MaxHashBits:  40,
		VerifyBits:   20,
		Verify:       gtest.DefaultConfig(),
		Decomposable: true,

		MaxAlternates: 4,
	}
}

// BasicConfig is the paper's "basic protocol" (Figures 6.1/6.2): recursive
// halving, decomposable hashes, and a separate verification hash per
// candidate — continuation hashes and group testing disabled.
func BasicConfig() Config {
	c := PaperConfig()
	c.ContMinBlock = 0
	c.Verify = gtest.TrivialConfig()
	c.VerifyBits = 16
	return c
}

// OneShotConfig is a single-roundtrip variant (paper §7): one round at a
// fixed block size with wider hashes, trivial verification folded into the
// same exchange.
func OneShotConfig(blockSize int) Config {
	c := BasicConfig()
	c.MaxBlockSize = blockSize
	c.MinBlockSize = blockSize
	c.SlackBits = 12
	return c
}

// maxAlternates caps Config.MaxAlternates. The receiver keeps that many
// offsets for every entry of a round, and a holder's config sets it.
const maxAlternates = 64

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.MaxBlockSize <= 0 || c.MaxBlockSize&(c.MaxBlockSize-1) != 0 {
		return fmt.Errorf("core: MaxBlockSize %d must be a positive power of two", c.MaxBlockSize)
	}
	if c.MinBlockSize <= 0 || c.MinBlockSize&(c.MinBlockSize-1) != 0 {
		return fmt.Errorf("core: MinBlockSize %d must be a positive power of two", c.MinBlockSize)
	}
	if c.MinBlockSize > c.MaxBlockSize {
		return fmt.Errorf("core: MinBlockSize %d > MaxBlockSize %d", c.MinBlockSize, c.MaxBlockSize)
	}
	if c.ContMinBlock < 0 {
		return fmt.Errorf("core: ContMinBlock %d negative", c.ContMinBlock)
	}
	if c.ContMinBlock > 0 {
		if c.ContMinBlock&(c.ContMinBlock-1) != 0 {
			return fmt.Errorf("core: ContMinBlock %d must be a power of two", c.ContMinBlock)
		}
		if c.ContBits == 0 || c.ContBits > 32 {
			return fmt.Errorf("core: ContBits %d out of range", c.ContBits)
		}
	}
	if c.VerifyBits == 0 || c.VerifyBits > 64 {
		return fmt.Errorf("core: VerifyBits %d out of range (1..64)", c.VerifyBits)
	}
	if c.MaxHashBits == 0 || c.MaxHashBits > 56 {
		return fmt.Errorf("core: MaxHashBits %d out of range (1..56)", c.MaxHashBits)
	}
	if c.MinHashBits == 0 || c.MinHashBits > c.MaxHashBits {
		return fmt.Errorf("core: MinHashBits %d out of range", c.MinHashBits)
	}
	if c.MaxAlternates < 0 || c.MaxAlternates > maxAlternates {
		return fmt.Errorf("core: MaxAlternates %d out of range (0..%d)", c.MaxAlternates, maxAlternates)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers %d negative", c.Workers)
	}
	switch c.MapMode {
	case MapHalving:
	case MapCDC:
		// Probe the chunker with the largest and smallest scheduled chunk
		// sizes so an unusable derived Params surfaces here as the cdc
		// package's typed error (the negotiation path reports it verbatim).
		for _, avg := range []int{c.initialBlockSize(c.MaxBlockSize * 2), c.globalFloor()} {
			if _, err := cdc.CutsE(nil, c.cdcParams(avg)); err != nil {
				return fmt.Errorf("core: MapCDC schedule unusable at avg %d: %w", avg, err)
			}
		}
	default:
		return fmt.Errorf("core: unknown MapMode %d", int(c.MapMode))
	}
	return nil
}

// cdcHashBits returns the width of a chunk hash for average chunk size avg in
// a file of length n. A chunk hash is compared only against old chunks of the
// exact same length — a handful out of the ~n/avg old chunks, spread across
// roughly avg distinct lengths — instead of the n sliding positions a
// halving-mode global hash must survive. That shrinks the collision domain by
// a factor of ~n/(n/avg/avg) and removes the need for most of the usual
// 2*log2(n/b)+slack width: log2(avg) for the position count, and ~8 more for
// the per-length spread. A rare false candidate is cheap — group-testing
// verification rejects it and the alternate list retries. The usual floor and
// ceiling still apply.
func (c *Config) cdcHashBits(n, avg int) uint {
	h := c.hashBits(n, avg)
	cut := uint(bits.Len(uint(avg))-1) + 8
	if h > cut && h-cut > c.MinHashBits {
		h -= cut
	} else {
		h = c.MinHashBits
	}
	return h
}

// cdcCountBits is the width of a region's chunk-count field. Every chunk but
// a region's last is at least min long, so a region of regionLen bytes splits
// into at most ceil(regionLen/min) chunks; count-1 is what travels. Both
// sides derive the width from the shared region geometry.
func cdcCountBits(regionLen, min int) uint {
	maxCount := (regionLen + min - 1) / min
	if maxCount <= 1 {
		return 0
	}
	return uint(bits.Len(uint(maxCount - 1)))
}

// cdcParams derives the chunker parameters for one CDC round from its
// average chunk size (a power of two >= globalFloor). Min is Avg/4 but never at
// or below the chunker's 48-byte rolling window, which keeps small averages
// (64, 128) usable.
func (c *Config) cdcParams(avg int) cdc.Params {
	mn := avg / 4
	if mn <= 48 {
		mn = 49
	}
	return cdc.Params{Min: mn, Avg: avg, Max: avg * 4}
}

// hashBits returns the width of a global hash for block size b in a file of
// length n (paper §5.3: 2*log2(n/b) plus slack, clamped).
func (c *Config) hashBits(n, b int) uint {
	if n < 2 {
		n = 2
	}
	if b < 1 {
		b = 1
	}
	ratio := n / b
	if ratio < 2 {
		ratio = 2
	}
	h := 2*uint(bits.Len(uint(ratio-1))) + c.SlackBits
	if h < c.MinHashBits {
		h = c.MinHashBits
	}
	if h > c.MaxHashBits {
		h = c.MaxHashBits
	}
	return h
}

// globalFloor is the smallest block size a round hashes blocks at; below it
// rounds continue probe-only down to ContMinBlock. In halving it is
// MinBlockSize. CDC goes one level lower: exact (length, hash) chunk lookup
// confines collisions to the ~n/avg old chunks of equal length — not the n
// window positions a halving scan visits — but no lower than an average of
// 64, since the chunker needs Min > its 48-byte rolling window (Min is
// clamped to 49 at small averages).
func (c *Config) globalFloor() int {
	if c.MapMode != MapCDC {
		return c.MinBlockSize
	}
	return max(c.MinBlockSize/2, 64)
}

// initialBlockSize picks the starting block size for a file of length n:
// MaxBlockSize, halved until it is at most n/2 (but never below
// MinBlockSize), and never below globalFloor.
func (c *Config) initialBlockSize(n int) int {
	b := c.MaxBlockSize
	for b > c.MinBlockSize && b > n/2 {
		b /= 2
	}
	return max(b, c.globalFloor())
}

// minScheduleBlock is the smallest block size any round uses: the
// continuation-probe minimum, or globalFloor when that is smaller.
func (c *Config) minScheduleBlock() int {
	if c.ContMinBlock > 0 && c.ContMinBlock < c.globalFloor() {
		return c.ContMinBlock
	}
	return c.globalFloor()
}
