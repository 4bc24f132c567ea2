package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"msync/internal/corpus"
	"msync/internal/md4"
)

// The benchmark's corpora. Every generator takes its parameters from an
// internal/corpus profile and its bytes from internal/corpus primitives
// (SourceText, RandomText), but locks the *shape*: file sizes follow the
// profile's distribution by quantile instead of by sampling, and the number
// of changed/new/deleted/renamed files and of edits per file are exact
// counts instead of coin flips. The seed then decides only which files play
// which role, where edits land, and what the bytes are. With the profiles'
// own Generate, ten seeds scatter by 35 % in wire bytes on the 480-file tree
// and by 48 % on the three large files (README, "Corpora are shape-locked",
// has the table), more than any bound the driver admits. This second set of
// generators is to move into internal/corpus, in place of the sampled ones,
// when ROADMAP item 1's consolidation PR may touch that package.

// emitFunc receives one generated file: v1 is the client's outdated content,
// v2 the server's current content. A nil v1 means the file is new on the
// server, a nil v2 that the server deleted it.
type emitFunc func(path string, v1, v2 []byte) error

// lognormalSizes returns n file sizes following a log-normal distribution
// with the given mean and sigma, one per quantile, ascending.
func lognormalSizes(n, mean int, sigma float64) []int {
	sizes := make([]int, n)
	for i := range sizes {
		u := (float64(i) + 0.5) / float64(n)
		z := math.Sqrt2 * math.Erfinv(2*u-1)
		s := int(float64(mean) * math.Exp(sigma*z-sigma*sigma/2))
		if s < 64 {
			s = 64
		}
		sizes[i] = s
	}
	return sizes
}

// lockedEdit derives a new version of data under em with exact counts: the
// number of bursts is the model's expectation rounded, every burst holds
// exactly em.BurstEdits edits, and insert/delete/replace take strict turns.
func lockedEdit(rng *rand.Rand, data []byte, em corpus.EditModel) []byte {
	out := append([]byte(nil), data...)
	bursts := int(em.BurstsPer32KB*float64(len(data))/(32<<10) + 0.5)
	if bursts < 1 {
		bursts = 1
	}
	op := 0
	for b := 0; b < bursts; b++ {
		center := rng.Intn(len(out) + 1)
		for e := 0; e < em.BurstEdits; e++ {
			pos := center + rng.Intn(2*em.BurstSpread+1) - em.BurstSpread
			if pos < 0 {
				pos = 0
			}
			if pos > len(out) {
				pos = len(out)
			}
			size := em.EditSize/2 + rng.Intn(em.EditSize+1)
			end := pos + size
			if end > len(out) {
				end = len(out)
			}
			switch op % 3 {
			case 0: // insert
				ins := corpus.SourceText(rng, size)
				out = append(out[:pos], append(ins, out[pos:]...)...)
			case 1: // delete
				out = append(out[:pos], out[end:]...)
			default: // replace
				copy(out[pos:end], corpus.SourceText(rng, end-pos))
			}
			op++
		}
	}
	return out
}

// scaled applies the workload scale to a count, never going below min.
func scaled(n int, scale float64, min int) int {
	s := int(float64(n)*scale + 0.5)
	if s < min {
		s = min
	}
	return s
}

// genSource is the gcc-like source tree of src_cold and src_warm:
// corpus.GCCProfile(4) with its shape locked. Files are walked in size order
// in strides of 20; in each stride exactly ChangedFraction of the files are
// edited, so the edited bytes are the same share of the tree on every seed.
func genSource(seed int64, scale float64, emit emitFunc) error {
	p := corpus.GCCProfile(4)
	rng := rand.New(rand.NewSource(seed))
	n := scaled(p.Files, scale, 20)
	sizes := lognormalSizes(n, p.MeanSize, p.SizeSigma)
	names := rng.Perm(n)

	const stride = 20
	changedPer := int(p.ChangedFraction*stride + 0.5)
	deleteEvery := int(1/p.DeletedFraction+0.5) / stride // strides per deleted file
	for base := 0; base < n; base += stride {
		roles := rng.Perm(stride)
		for j := 0; j < stride && base+j < n; j++ {
			i := base + j
			path := fmt.Sprintf("%s/src/file_%04d.c", p.Name, names[i])
			v1 := corpus.SourceText(rng, sizes[i])
			v2 := v1
			switch r := roles[j]; {
			case r < changedPer:
				v2 = lockedEdit(rng, v1, p.Edits)
			case r == changedPer && (base/stride)%deleteEvery == 0:
				v2 = nil
			}
			if err := emit(path, v1, v2); err != nil {
				return err
			}
		}
	}
	nNew := int(float64(n) * p.NewFraction)
	newSizes := lognormalSizes(nNew, p.MeanSize, p.SizeSigma)
	for i := 0; i < nNew; i++ {
		path := fmt.Sprintf("%s/src/new_%04d.c", p.Name, i)
		if err := emit(path, nil, corpus.SourceText(rng, newSizes[i])); err != nil {
			return err
		}
	}
	return nil
}

// Tiny-collection shape (tiny_flat, tiny_tree): many files of 200–2000 B of
// which a sliver changes.
const (
	tinyFiles       = 3000
	tinyMinSize     = 200
	tinyMaxSize     = 2000
	tinyEditedFrac  = 0.01
	tinyNewFrac     = 0.002
	tinyDeletedFrac = 0.001
	tinyRenamedFrac = 0.002
	tinyShapeSeed   = 1
)

var tinyEdits = corpus.EditModel{BurstsPer32KB: 2.0, BurstEdits: 3, EditSize: 30, BurstSpread: 200}

// genTiny is the small-file-heavy collection: sizes sweep 200–2000 B evenly,
// and exactly 1 % of the files are edited, 0.2 % new, 0.1 % deleted and
// 0.2 % renamed without an edit, each role's files spread over the sizes.
func genTiny(seed int64, scale float64, emit emitFunc) error {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(tinyFiles, scale, 100)
	count := func(frac float64) int { return scaled(n, frac, 1) }
	edited, deleted, renamed, added := count(tinyEditedFrac), count(tinyDeletedFrac), count(tinyRenamedFrac), count(tinyNewFrac)

	const (
		roleKeep = iota
		roleEdit
		roleDelete
		roleRename
	)
	span := tinyMaxSize - tinyMinSize + 1
	size := func(i int) int { return tinyMinSize + (i*997)%span }
	// Each role's files are spread evenly over the size range: the files are
	// ranked by size, the ranks cut into as many strata as the role has
	// files, and one file drawn from each. Thirty edited files drawn freely
	// would differ in total size by a tenth between seeds, and so would the
	// delta bytes.
	bySize := make([]int, n)
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool { return size(bySize[a]) < size(bySize[b]) })
	// Which files play a role is part of the shape, not of the seed: the
	// paths decide where the merkle descent of tiny_tree has to go, so a
	// seed that moved the changed files would move its tree rounds and
	// control bytes. The seed decides every byte and where in a file an
	// edit lands.
	shape := rand.New(rand.NewSource(tinyShapeSeed))
	roles := make([]uint8, n)
	assign := func(role uint8, k int) {
		for s := 0; s < k; s++ {
			lo, hi := s*n/k, (s+1)*n/k
			i := bySize[lo+shape.Intn(hi-lo)]
			for roles[i] != roleKeep {
				i = bySize[lo+shape.Intn(hi-lo)]
			}
			roles[i] = role
		}
	}
	assign(roleEdit, edited)
	assign(roleDelete, deleted)
	assign(roleRename, renamed)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("tiny/d%03d/f%05d.txt", i%200, i)
		v1 := corpus.SourceText(rng, size(i))
		var err error
		switch roles[i] {
		case roleEdit:
			err = emit(path, v1, lockedEdit(rng, v1, tinyEdits))
		case roleDelete:
			err = emit(path, v1, nil)
		case roleRename:
			if err = emit(path, v1, nil); err == nil {
				err = emit(fmt.Sprintf("tiny/moved/f%05d.txt", i), nil, v1)
			}
		default:
			err = emit(path, v1, v1)
		}
		if err != nil {
			return err
		}
	}
	for i := 0; i < added; i++ {
		path := fmt.Sprintf("tiny/added/n%05d.txt", i)
		if err := emit(path, nil, corpus.SourceText(rng, size(i*37))); err != nil {
			return err
		}
	}
	return nil
}

// bigFileBytes is the v1 size of each of the three files of the big_*
// workloads at scale 1.
const bigFileBytes = 2 << 20

// genBig is the large-file collection of big_halving and big_cdc: one
// database dump, one VM image and one heavy log, each bigFileBytes long, with
// the edit rates of the corpus package's adversarial profiles applied as
// exact counts.
func genBig(seed int64, scale float64, emit emitFunc) error {
	rng := rand.New(rand.NewSource(seed))
	size := scaled(bigFileBytes, scale, 64<<10)
	v1, v2 := bigDBDump(rng, size, corpus.DefaultDBDumpProfile(1))
	if err := emit("big/table.sql", v1, v2); err != nil {
		return err
	}
	v1, v2 = bigVMImage(rng, size, corpus.DefaultVMImageProfile(1))
	if err := emit("big/disk.img", v1, v2); err != nil {
		return err
	}
	v1, v2 = bigHeavyLog(rng, size, corpus.DefaultHeavyLogProfile(1))
	return emit("big/app.log", v1, v2)
}

var rowWords = []string{
	"alloc", "block", "chunk", "entry", "flags", "index", "node", "offset",
	"parse", "result", "state", "status", "symbol", "table", "token", "value",
}

func dumpRow(rng *rand.Rand, buf *bytes.Buffer, id int) {
	fmt.Fprintf(buf, "INSERT INTO events VALUES (%d, '%s_%d', %d, %d, '%s');\n",
		id, rowWords[rng.Intn(len(rowWords))], rng.Intn(10000),
		rng.Intn(1<<30), rng.Intn(1<<16), rowWords[rng.Intn(len(rowWords))])
}

// pickSet returns k distinct indexes in [lo, n) chosen by rng.
func pickSet(rng *rand.Rand, lo, n, k int) map[int]bool {
	set := make(map[int]bool, k)
	for _, i := range rng.Perm(n - lo)[:k] {
		set[lo+i] = true
	}
	return set
}

// bigDBDump builds a key-ordered dump and its successor: the oldest
// PruneFrac of the rows pruned, exact shares of the survivors deleted,
// updated and followed by an inserted row, and AppendFrac of new rows at the
// tail. Every insert or delete shifts all later bytes.
func bigDBDump(rng *rand.Rand, size int, p corpus.DBDumpProfile) (v1, v2 []byte) {
	var rows [][]byte
	var ids []int
	var oldBuf, row bytes.Buffer
	id := 0
	for oldBuf.Len() < size {
		id += 1 + rng.Intn(3)
		row.Reset()
		dumpRow(rng, &row, id)
		rows = append(rows, append([]byte(nil), row.Bytes()...))
		ids = append(ids, id)
		oldBuf.Write(row.Bytes())
	}
	n := len(rows)
	pruned := int(float64(n) * p.PruneFrac)
	live := n - pruned
	share := func(prob float64) int { return int(float64(live)*prob + 0.5) }
	gone := pickSet(rng, pruned, n, share(p.DeleteProb))
	updated := pickSet(rng, pruned, n, share(p.UpdateProb))
	inserted := pickSet(rng, pruned, n, share(p.InsertProb))

	var newBuf bytes.Buffer
	for i := pruned; i < n; i++ {
		switch {
		case gone[i]:
		case updated[i]:
			dumpRow(rng, &newBuf, ids[i])
		default:
			newBuf.Write(rows[i])
		}
		if inserted[i] {
			dumpRow(rng, &newBuf, ids[i])
		}
	}
	for tail := newBuf.Len() + int(float64(size)*p.AppendFrac); newBuf.Len() < tail; {
		id += 1 + rng.Intn(3)
		dumpRow(rng, &newBuf, id)
	}
	return oldBuf.Bytes(), newBuf.Bytes()
}

// bigVMImage builds an incompressible block image and its successor: exactly
// RewriteFrac of the blocks rewritten in place and InsertBlocks new blocks
// spliced in at an aligned point, shifting everything behind it.
func bigVMImage(rng *rand.Rand, size int, p corpus.VMImageProfile) (v1, v2 []byte) {
	blocks := size / p.BlockSize
	v1 = corpus.RandomText(rng, blocks*p.BlockSize)
	cur := append([]byte(nil), v1...)
	for _, b := range rng.Perm(blocks)[:int(float64(blocks)*p.RewriteFrac+0.5)] {
		copy(cur[b*p.BlockSize:], corpus.RandomText(rng, p.BlockSize))
	}
	at := rng.Intn(blocks) * p.BlockSize
	ins := corpus.RandomText(rng, p.InsertBlocks*p.BlockSize)
	v2 = append(cur[:at:at], append(ins, cur[at:]...)...)
	return v1, v2
}

func logLines(rng *rand.Rand, buf *bytes.Buffer, size int) {
	levels := []string{"INFO", "WARN", "DEBUG", "ERROR"}
	for buf.Len() < size {
		fmt.Fprintf(buf, "2026-%02d-%02dT%02d:%02d:%02d %s %s id=%d\n",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			levels[rng.Intn(len(levels))], rowWords[rng.Intn(len(rowWords))], rng.Intn(1<<20))
	}
}

// bigHeavyLog builds a log and its successor: rotated (the head RotateFrac
// dropped at a line boundary, so every surviving byte moves forward) and
// grown by AppendFrac.
func bigHeavyLog(rng *rand.Rand, size int, p corpus.HeavyLogProfile) (v1, v2 []byte) {
	var buf bytes.Buffer
	logLines(rng, &buf, size)
	v1 = append([]byte(nil), buf.Bytes()...)
	cut := int(float64(len(v1)) * p.RotateFrac)
	if nl := bytes.IndexByte(v1[cut:], '\n'); nl >= 0 {
		cut += nl + 1
	}
	var nb bytes.Buffer
	nb.Write(v1[cut:])
	logLines(rng, &nb, nb.Len()+int(float64(size)*p.AppendFrac))
	return v1, nb.Bytes()
}

// Journal-collection shape (journal_live): the versioned-store experiment's
// wide tree of 2 KB files, moving forward one version per operation.
const (
	journalFiles     = 2000
	journalFileBytes = 2 << 10
	journalEditFrac  = 0.01
	journalAddFrac   = 0.002
	journalDelFrac   = 0.001
)

var journalEdits = corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 200}

// genJournalBase is version 1 of the journal_live tree, identical on both
// ends; journalChurn moves the server forward from there.
func genJournalBase(seed int64, scale float64, emit emitFunc) error {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(journalFiles, scale, 100)
	for i := 0; i < n; i++ {
		data := corpus.SourceText(rng, journalFileBytes)
		if err := emit(fmt.Sprintf("jl/d%03d/f%05d.txt", i%100, i), data, data); err != nil {
			return err
		}
	}
	return nil
}

// journalChurn derives version step+1 of a journal_live tree from the sorted
// paths of version step: exactly 1 % of the files edited, 0.1 % deleted and
// 0.2 % added. load reads a current file; the changes are handed to emit
// with v1 the old content (nil for an added file) and v2 the new (nil for a
// deleted one). It returns the next version's sorted paths.
func journalChurn(seed int64, step int, paths []string, load func(string) ([]byte, error), emit emitFunc) ([]string, error) {
	rng := rand.New(rand.NewSource(seed + int64(step)*7919))
	n := len(paths)
	edits, dels, adds := scaled(n, journalEditFrac, 1), scaled(n, journalDelFrac, 1), scaled(n, journalAddFrac, 1)
	picked := rng.Perm(n)[:edits+dels]
	sort.Ints(picked[:edits])
	for _, i := range picked[:edits] {
		old, err := load(paths[i])
		if err != nil {
			return nil, err
		}
		if err := emit(paths[i], old, lockedEdit(rng, old, journalEdits)); err != nil {
			return nil, err
		}
	}
	gone := make(map[string]bool, dels)
	for _, i := range picked[edits:] {
		old, err := load(paths[i])
		if err != nil {
			return nil, err
		}
		if err := emit(paths[i], old, nil); err != nil {
			return nil, err
		}
		gone[paths[i]] = true
	}
	next := make([]string, 0, n+adds-dels)
	for _, p := range paths {
		if !gone[p] {
			next = append(next, p)
		}
	}
	for i := 0; i < adds; i++ {
		p := fmt.Sprintf("jl/gen%04d/n%04d.txt", step, i)
		if err := emit(p, nil, corpus.SourceText(rng, journalFileBytes)); err != nil {
			return nil, err
		}
		next = append(next, p)
	}
	sort.Strings(next)
	return next, nil
}

// fingerprint condenses a generated corpus into the value corpus.lock pins:
// an MD4 over every emitted (path, v1, v2) in order, plus file and byte
// counts, so any drift in a generator or in an internal/corpus primitive
// shows as a changed line instead of as a silently different benchmark.
type fingerprint struct {
	h              hash.Hash
	files          int
	bytes1, bytes2 int64
}

func newFingerprint() *fingerprint { return &fingerprint{h: md4.New()} }

// add folds one emitted file in, given the MD4 sums the caller already
// computed for its own bookkeeping.
func (f *fingerprint) add(path string, v1, v2 []byte, sum1, sum2 [md4.Size]byte) {
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[:8], uint64(len(v1)))
	binary.LittleEndian.PutUint64(lens[8:], uint64(len(v2)))
	f.h.Write([]byte(path))
	f.h.Write([]byte{0, b2u(v1 != nil), b2u(v2 != nil)})
	f.h.Write(lens[:])
	if v1 != nil {
		f.h.Write(sum1[:])
		f.bytes1 += int64(len(v1))
	}
	if v2 != nil {
		f.h.Write(sum2[:])
		f.bytes2 += int64(len(v2))
	}
	f.files++
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// String renders the lock-file value.
func (f *fingerprint) String() string {
	return fmt.Sprintf("%x files=%d v1_bytes=%d v2_bytes=%d", f.h.Sum(nil), f.files, f.bytes1, f.bytes2)
}
