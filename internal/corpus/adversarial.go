package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
)

// This file holds the adversarial corpus profiles: workloads built to stress
// map construction's boundary sensitivity. Append-heavy logs with rotation,
// database dumps whose every insert shifts the rest of the file, VM images
// with sector-level rewrites plus region shifts, and binary releases whose
// sections move between builds. These are the scenarios where fixed
// power-of-two block boundaries degrade and content-defined boundaries are
// expected to win (see DESIGN.md §16 and the cdc.map table).

// HeavyLogProfile models aggressively-growing log files: big appends every
// cycle, and a fraction of files rotated (head bytes dropped), which shifts
// every surviving byte toward the front.
type HeavyLogProfile struct {
	Files    int
	MeanSize int
	// AppendFrac is the appended volume as a fraction of the old size.
	AppendFrac float64
	// RotateProb is the probability a file was rotated: its head RotateFrac
	// bytes (rounded to a line boundary) are gone in version 2.
	RotateProb, RotateFrac float64
}

// DefaultHeavyLogProfile returns the append-heavy log corpus at a scale.
func DefaultHeavyLogProfile(scale float64) HeavyLogProfile {
	return HeavyLogProfile{
		Files:      max(2, int(24*scale)),
		MeanSize:   96 * 1024,
		AppendFrac: 0.25,
		RotateProb: 0.25,
		RotateFrac: 0.15,
	}
}

// Generate produces the two versions of the heavy-log corpus.
func (p HeavyLogProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		path := fmt.Sprintf("logs-heavy/app_%03d.log", i)
		var buf bytes.Buffer
		writeLogLines(rng, &buf, size)
		old := append([]byte(nil), buf.Bytes()...)
		v1.Files = append(v1.Files, File{path, old})

		cur := old
		if rng.Float64() < p.RotateProb {
			// Rotation: drop the head, snapped to the next newline so the
			// survivor still starts at a record boundary.
			cut := int(float64(len(cur)) * p.RotateFrac)
			if nl := bytes.IndexByte(cur[cut:], '\n'); nl >= 0 {
				cut += nl + 1
			}
			cur = cur[cut:]
		}
		var nb bytes.Buffer
		nb.Write(cur)
		writeLogLines(rng, &nb, nb.Len()+int(float64(size)*p.AppendFrac))
		v2.Files = append(v2.Files, File{path, append([]byte(nil), nb.Bytes()...)})
	}
	return v1, v2
}

// DBDumpProfile models logical database dumps: files of ordered fixed-shape
// records where version 2 has rows inserted, deleted and updated throughout.
// Every insertion or deletion shifts all subsequent bytes, so fixed block
// grids misalign pervasively while the record content itself barely changes.
// Tables dumped in key order also evolve at their edges: retention pruning
// (bulk DELETE of the oldest rows) drops the dump's head, and autoincrement
// inserts land at its tail — the dominant churn for event/history tables.
type DBDumpProfile struct {
	Files    int
	MeanSize int
	// Per-row probabilities for the version-2 derivation.
	InsertProb, DeleteProb, UpdateProb float64
	// PruneProb is the probability a table had its retention window advanced:
	// the oldest PruneFrac of its rows are gone in version 2.
	PruneProb, PruneFrac float64
	// AppendFrac is new-row volume appended at the tail (autoincrement keys),
	// as a fraction of the old size.
	AppendFrac float64
}

// DefaultDBDumpProfile returns the database-dump corpus at a scale. The
// defaults follow the event/history-table shape described above: retention
// pruning and autoincrement appends dominate, with a thin spread of in-place
// row churn through the body of each dump.
func DefaultDBDumpProfile(scale float64) DBDumpProfile {
	return DBDumpProfile{
		Files:      max(2, int(12*scale)),
		MeanSize:   192 * 1024,
		InsertProb: 0.012,
		DeleteProb: 0.006,
		UpdateProb: 0.004,
		PruneProb:  0.4,
		PruneFrac:  0.2,
		AppendFrac: 0.15,
	}
}

// dumpRow emits one INSERT-statement-shaped record for the given row id.
func dumpRow(rng *rand.Rand, buf *bytes.Buffer, table string, id int) {
	fmt.Fprintf(buf, "INSERT INTO %s VALUES (%d, '%s_%d', %d, %d, '%s');\n",
		table, id,
		srcWords[rng.Intn(len(srcWords))], rng.Intn(10000),
		rng.Intn(1<<30), rng.Intn(1<<16),
		srcWords[rng.Intn(len(srcWords))])
}

// Generate produces the two versions of the dump corpus.
func (p DBDumpProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		table := fmt.Sprintf("t%02d", i)
		path := fmt.Sprintf("dbdump/table_%03d.sql", i)

		pruneBelow := 0
		if rng.Float64() < p.PruneProb {
			pruneBelow = int(float64(size) * p.PruneFrac)
		}
		var oldBuf, newBuf bytes.Buffer
		fmt.Fprintf(&oldBuf, "-- dump of %s\n", table)
		fmt.Fprintf(&newBuf, "-- dump of %s\n", table)
		id := 0
		for oldBuf.Len() < size {
			id += 1 + rng.Intn(3)
			var row bytes.Buffer
			dumpRow(rng, &row, table, id)
			oldBuf.Write(row.Bytes())
			if oldBuf.Len() < pruneBelow {
				continue // retention-pruned: oldest rows absent from v2
			}
			r := rng.Float64()
			switch {
			case r < p.DeleteProb:
				// row gone in v2
			case r < p.DeleteProb+p.UpdateProb:
				dumpRow(rng, &newBuf, table, id)
			default:
				newBuf.Write(row.Bytes())
			}
			if rng.Float64() < p.InsertProb {
				dumpRow(rng, &newBuf, table, id)
			}
		}
		for tail := newBuf.Len() + int(float64(size)*p.AppendFrac); newBuf.Len() < tail; {
			id += 1 + rng.Intn(3)
			dumpRow(rng, &newBuf, table, id)
		}
		v1.Files = append(v1.Files, File{path, append([]byte(nil), oldBuf.Bytes()...)})
		v2.Files = append(v2.Files, File{path, append([]byte(nil), newBuf.Bytes()...)})
	}
	return v1, v2
}

// VMImageProfile models disk images: few large, mostly incompressible files
// organized in filesystem-style blocks. Version 2 rewrites scattered blocks
// in place and inserts a region (a grown partition or appended qcow2
// cluster), shifting everything behind it.
type VMImageProfile struct {
	Files     int
	MeanSize  int
	BlockSize int
	// RewriteFrac of blocks change in place; InsertBlocks new blocks are
	// spliced in at a random aligned point.
	RewriteFrac  float64
	InsertBlocks int
}

// DefaultVMImageProfile returns the VM-image corpus at a scale.
func DefaultVMImageProfile(scale float64) VMImageProfile {
	return VMImageProfile{
		Files:        max(1, int(3*scale)),
		MeanSize:     1 << 20,
		BlockSize:    4096,
		RewriteFrac:  0.03,
		InsertBlocks: 4,
	}
}

// Generate produces the two versions of the VM-image corpus.
func (p VMImageProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		blocks := (p.MeanSize/2 + rng.Intn(p.MeanSize)) / p.BlockSize
		path := fmt.Sprintf("vmimage/disk_%02d.img", i)
		old := RandomText(rng, blocks*p.BlockSize)
		v1.Files = append(v1.Files, File{path, old})

		cur := append([]byte(nil), old...)
		for b := 0; b < blocks; b++ {
			if rng.Float64() < p.RewriteFrac {
				copy(cur[b*p.BlockSize:], RandomText(rng, p.BlockSize))
			}
		}
		at := rng.Intn(blocks) * p.BlockSize
		ins := RandomText(rng, p.InsertBlocks*p.BlockSize)
		cur = append(cur[:at], append(ins, cur[at:]...)...)
		v2.Files = append(v2.Files, File{path, cur})
	}
	return v1, v2
}

// BinaryReleaseProfile models compiled release artifacts: medium binary
// files whose sections (code, data, symbol tables) survive a rebuild mostly
// intact but move, because an earlier section grew or shrank. A few files
// are new in version 2.
type BinaryReleaseProfile struct {
	Files       int
	MeanSize    int
	Sections    int
	NewFraction float64
	// SectionChangeProb is the chance a section's content is rebuilt;
	// unchanged sections shift by their predecessors' size deltas.
	SectionChangeProb float64
	// GrowthBytes bounds how much a rebuilt section grows or shrinks.
	GrowthBytes int
}

// DefaultBinaryReleaseProfile returns the binary-release corpus at a scale.
func DefaultBinaryReleaseProfile(scale float64) BinaryReleaseProfile {
	return BinaryReleaseProfile{
		Files:             max(2, int(16*scale)),
		MeanSize:          128 * 1024,
		Sections:          8,
		NewFraction:       0.06,
		SectionChangeProb: 0.3,
		GrowthBytes:       2048,
	}
}

// Generate produces the two versions of the binary-release corpus.
func (p BinaryReleaseProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		path := fmt.Sprintf("binrelease/lib_%03d.so", i)
		secSize := size / p.Sections
		var oldBuf, newBuf bytes.Buffer
		for s := 0; s < p.Sections; s++ {
			sec := RandomText(rng, secSize/2+rng.Intn(secSize))
			oldBuf.Write(sec)
			if rng.Float64() < p.SectionChangeProb {
				delta := rng.Intn(2*p.GrowthBytes+1) - p.GrowthBytes
				newBuf.Write(RandomText(rng, max(64, len(sec)+delta)))
			} else {
				newBuf.Write(sec)
			}
		}
		v1.Files = append(v1.Files, File{path, append([]byte(nil), oldBuf.Bytes()...)})
		v2.Files = append(v2.Files, File{path, append([]byte(nil), newBuf.Bytes()...)})
	}
	nNew := int(float64(p.Files) * p.NewFraction)
	for i := 0; i < nNew; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		path := fmt.Sprintf("binrelease/new_%03d.so", i)
		v2.Files = append(v2.Files, File{path, RandomText(rng, size)})
	}
	return v1, v2
}
