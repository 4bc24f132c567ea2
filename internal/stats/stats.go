// Package stats implements the cost accounting used throughout the
// experiments: bytes by direction and protocol phase, roundtrip counts, and a
// link model converting costs into transfer-time estimates.
//
// Bandwidth is the paper's primary metric; all experiment tables are rendered
// from Costs values collected by the protocol engines.
package stats

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Direction of a transfer, from the client's point of view.
type Direction int

const (
	// C2S is client-to-server traffic (e.g. verification hashes).
	C2S Direction = iota
	// S2C is server-to-client traffic (e.g. block hashes, deltas).
	S2C
	numDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case C2S:
		return "c2s"
	case S2C:
		return "s2c"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Phase identifies the protocol phase a byte was spent in.
type Phase int

const (
	// PhaseControl covers handshakes, manifests and per-file verdicts.
	PhaseControl Phase = iota
	// PhaseMap covers map construction: hashes, candidate bitmaps,
	// verification hashes and confirmation bitmaps.
	PhaseMap
	// PhaseDelta covers the final delta transfer.
	PhaseDelta
	// PhaseFull covers whole files sent because syncing could not help
	// (new files, fallbacks).
	PhaseFull
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseControl:
		return "control"
	case PhaseMap:
		return "map"
	case PhaseDelta:
		return "delta"
	case PhaseFull:
		return "full"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Costs accumulates protocol costs. The zero value is ready to use.
// Costs is not safe for concurrent use; each session keeps its own and merges.
type Costs struct {
	bytes      [numDirections][numPhases]int64
	Roundtrips int
	// Files synchronized via the map+delta path.
	FilesSynced int
	// Files skipped because fingerprints matched.
	FilesUnchanged int
	// Files transferred whole (new at the client, or fallback).
	FilesFull int
	// Files updated by a precomputed journal delta (versioned store path).
	FilesJournal int
	// Files whose map construction ran in CDC (content-defined chunking)
	// mode, and the content-defined chunks hashed for them (both sides'
	// engines counted on whichever side merges).
	FilesCDC  int
	CDCChunks int64
	// Journal fast-path outcomes on the server: a hit serves the session
	// from the version store, a miss falls back to the full protocol.
	JournalHits   int64
	JournalMisses int64
	// Groups of files a MANIFEST_SHORT's 3-byte sums passed as unchanged
	// whose 128-bit group sum then failed; each group's files went whole
	// (counted in FilesFull, not FilesUnchanged).
	SumGroupsFailed int
	// MANIFEST_TABLEs the holder could not peel: it asked for the list with
	// MANIFEST_WANT, one roundtrip more (both ends count it).
	TablePeelsFailed int
	// Merkle-descent roundtrips within tree-manifest change detection
	// (a subset of Roundtrips; both sides count each TREE exchange once).
	TreeRounds int
	// Cross-file matching outcomes (tree mode): FilesRenamed counts files
	// materialized by copying a local whole-file MD4 match instead of any
	// transfer, RenameBytesSaved their total size, FilesRebased files
	// synced against an alternate local basis named by a want hint.
	FilesRenamed     int
	RenameBytesSaved int64
	FilesRebased     int
	// Candidate/verification bookkeeping for harvest-rate reporting.
	HashesSent         int64
	CandidatesFound    int64
	MatchesConfirmed   int64
	FalseCandidates    int64
	ContinuationHashes int64
	// Local hashing work and signature-cache activity (see internal/sigcache).
	// BlockHashesComputed counts block hashes actually computed by engines
	// (cache hits avoid them); BytesHashed counts bytes fed through hash
	// functions for manifests and block levels.
	BlockHashesComputed int64
	BytesHashed         int64
	CacheHits           int64
	CacheMisses         int64
	CacheEvictions      int64
}

// Add records n payload bytes in the given direction and phase.
func (c *Costs) Add(d Direction, p Phase, n int) {
	c.bytes[d][p] += int64(n)
}

// Bytes reports accumulated bytes for (direction, phase).
func (c *Costs) Bytes(d Direction, p Phase) int64 { return c.bytes[d][p] }

// DirTotal reports total bytes in a direction.
func (c *Costs) DirTotal(d Direction) int64 {
	var t int64
	for p := Phase(0); p < numPhases; p++ {
		t += c.bytes[d][p]
	}
	return t
}

// PhaseTotal reports total bytes in a phase, both directions.
func (c *Costs) PhaseTotal(p Phase) int64 {
	return c.bytes[C2S][p] + c.bytes[S2C][p]
}

// Total reports all bytes in both directions.
func (c *Costs) Total() int64 { return c.DirTotal(C2S) + c.DirTotal(S2C) }

// Merge adds other into c.
func (c *Costs) Merge(other *Costs) {
	for d := Direction(0); d < numDirections; d++ {
		for p := Phase(0); p < numPhases; p++ {
			c.bytes[d][p] += other.bytes[d][p]
		}
	}
	c.Roundtrips += other.Roundtrips
	c.FilesSynced += other.FilesSynced
	c.FilesUnchanged += other.FilesUnchanged
	c.FilesFull += other.FilesFull
	c.FilesJournal += other.FilesJournal
	c.FilesCDC += other.FilesCDC
	c.CDCChunks += other.CDCChunks
	c.JournalHits += other.JournalHits
	c.JournalMisses += other.JournalMisses
	c.SumGroupsFailed += other.SumGroupsFailed
	c.TablePeelsFailed += other.TablePeelsFailed
	c.TreeRounds += other.TreeRounds
	c.FilesRenamed += other.FilesRenamed
	c.RenameBytesSaved += other.RenameBytesSaved
	c.FilesRebased += other.FilesRebased
	c.HashesSent += other.HashesSent
	c.CandidatesFound += other.CandidatesFound
	c.MatchesConfirmed += other.MatchesConfirmed
	c.FalseCandidates += other.FalseCandidates
	c.ContinuationHashes += other.ContinuationHashes
	c.BlockHashesComputed += other.BlockHashesComputed
	c.BytesHashed += other.BytesHashed
	c.CacheHits += other.CacheHits
	c.CacheMisses += other.CacheMisses
	c.CacheEvictions += other.CacheEvictions
}

// HarvestRate reports the fraction of sent hashes that ended in confirmed
// matches (the paper's §6.2 "harvest rate"), or 0 if none were sent.
func (c *Costs) HarvestRate() float64 {
	if c.HashesSent == 0 {
		return 0
	}
	return float64(c.MatchesConfirmed) / float64(c.HashesSent)
}

// String renders a compact multi-line summary.
func (c *Costs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %s (s2c %s, c2s %s), %d roundtrips\n",
		FormatBytes(c.Total()), FormatBytes(c.DirTotal(S2C)), FormatBytes(c.DirTotal(C2S)), c.Roundtrips)
	for p := Phase(0); p < numPhases; p++ {
		if c.PhaseTotal(p) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s s2c %-12s c2s %s\n", p,
			FormatBytes(c.bytes[S2C][p]), FormatBytes(c.bytes[C2S][p]))
	}
	fmt.Fprintf(&b, "  files: %d synced, %d unchanged, %d full",
		c.FilesSynced, c.FilesUnchanged, c.FilesFull)
	if c.FilesCDC+int(c.CDCChunks) > 0 {
		fmt.Fprintf(&b, "\n  cdc: %d files, %d chunks hashed", c.FilesCDC, c.CDCChunks)
	}
	if c.FilesJournal+int(c.JournalHits+c.JournalMisses) > 0 {
		fmt.Fprintf(&b, "\n  journal: %d files, %d hits, %d misses",
			c.FilesJournal, c.JournalHits, c.JournalMisses)
	}
	if c.TreeRounds+c.FilesRenamed+c.FilesRebased > 0 {
		fmt.Fprintf(&b, "\n  tree: %d descent rounds; %d renamed locally (%s saved), %d rebased",
			c.TreeRounds, c.FilesRenamed, FormatBytes(c.RenameBytesSaved), c.FilesRebased)
	}
	if c.CacheHits+c.CacheMisses+c.BytesHashed > 0 {
		fmt.Fprintf(&b, "\n  sigcache: %d hits, %d misses, %d evictions; hashed %s in %d block hashes",
			c.CacheHits, c.CacheMisses, c.CacheEvictions,
			FormatBytes(c.BytesHashed), c.BlockHashesComputed)
	}
	return b.String()
}

// MarshalJSON renders the costs as a flat JSON object for tooling:
// "<direction>_<phase>" byte counts plus the counters.
func (c *Costs) MarshalJSON() ([]byte, error) {
	m := map[string]int64{
		"roundtrips":            int64(c.Roundtrips),
		"files_synced":          int64(c.FilesSynced),
		"files_unchanged":       int64(c.FilesUnchanged),
		"files_full":            int64(c.FilesFull),
		"files_journal":         int64(c.FilesJournal),
		"files_cdc":             int64(c.FilesCDC),
		"cdc_chunks":            c.CDCChunks,
		"journal_hits":          c.JournalHits,
		"journal_misses":        c.JournalMisses,
		"sum_groups_failed":     int64(c.SumGroupsFailed),
		"table_peels_failed":    int64(c.TablePeelsFailed),
		"tree_rounds":           int64(c.TreeRounds),
		"files_renamed":         int64(c.FilesRenamed),
		"rename_bytes_saved":    c.RenameBytesSaved,
		"files_rebased":         int64(c.FilesRebased),
		"hashes_sent":           c.HashesSent,
		"candidates_found":      c.CandidatesFound,
		"matches_confirmed":     c.MatchesConfirmed,
		"false_candidates":      c.FalseCandidates,
		"continuation_hashes":   c.ContinuationHashes,
		"block_hashes_computed": c.BlockHashesComputed,
		"bytes_hashed":          c.BytesHashed,
		"cache_hits":            c.CacheHits,
		"cache_misses":          c.CacheMisses,
		"cache_evictions":       c.CacheEvictions,
		"total_bytes":           c.Total(),
	}
	for d := Direction(0); d < numDirections; d++ {
		for p := Phase(0); p < numPhases; p++ {
			m[fmt.Sprintf("%s_%s_bytes", d, p)] = c.bytes[d][p]
		}
	}
	return json.Marshal(m)
}

// FormatBytes renders n in KB with one decimal, the unit the paper's tables
// use, switching to MB above 10 MB.
func FormatBytes(n int64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// KB returns n in kibibytes as a float, for table rendering.
func KB(n int64) float64 { return float64(n) / 1024 }

// LinkModel estimates wall-clock transfer time for a half-duplex protocol on
// a link with the given characteristics.
type LinkModel struct {
	// DownBps and UpBps are bandwidths in bytes/second (server→client and
	// client→server respectively, e.g. ADSL-style asymmetric links).
	DownBps, UpBps float64
	// RTT is the round-trip latency.
	RTT time.Duration
}

// Duration estimates total transfer time for the given costs.
func (l LinkModel) Duration(c *Costs) time.Duration {
	if l.DownBps <= 0 || l.UpBps <= 0 {
		return 0
	}
	down := float64(c.DirTotal(S2C)) / l.DownBps
	up := float64(c.DirTotal(C2S)) / l.UpBps
	lat := time.Duration(c.Roundtrips) * l.RTT
	return time.Duration((down+up)*float64(time.Second)) + lat
}
