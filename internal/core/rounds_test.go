package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"msync/internal/cdc"
	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/sigcache"
)

const roundsGolden = "testdata/rounds.golden"

var updateRounds = flag.Bool("update", false, "rewrite "+roundsGolden)

// roundsCase is one engine session pinned in roundsGolden.
type roundsCase struct {
	name     string
	old, cur []byte
	cfg      Config
	// precompute attaches PrecomputeSignature's signature to the server;
	// emptySig one that holds only the whole-file sum.
	precompute, emptySig bool
	// predicts asks that some chunk candidate come from an edge prediction.
	predicts bool
	// check inspects the engines after the session.
	check func(t *testing.T, srv *ServerFile, cli *ClientFile)
}

// insertAt returns data with ins inserted at every offset of at.
func insertAt(data []byte, at []int, ins func(i int) []byte) []byte {
	var out []byte
	prev := 0
	for i, pos := range at {
		out = append(append(out, data[prev:pos]...), ins(i)...)
		prev = pos
	}
	return append(out, data[prev:]...)
}

// roundsCases are the sessions roundsGolden pins: every map-construction path
// of both modes — halving with and without continuation probes (so top-ups),
// a precomputed signature, CDC rounds whose region-edge chunks are found by
// prediction, a CDC server with a signature attached, and CDC rounds that
// declare a dead zone — under the paper's config, then one session per mode
// under the default.
func roundsCases() []roundsCase {
	rng := rand.New(rand.NewSource(34))
	text := corpus.SourceText(rng, 300_000)
	edited := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 3, EditSize: 50, BurstSpread: 300}.Apply(rng, text)

	// A handful of short insertions: every fixed boundary after the first
	// one shifts, and each confirmed chunk run ends at an edit the next
	// chunk's prediction must step over.
	rnd := randBytes(rng, 200_000)
	shifted := insertAt(rnd, []int{20_000, 55_000, 90_000, 130_000, 170_000}, func(i int) []byte {
		return randBytes(rng, 3+7*i)
	})
	// Fresh content far wider than twelve chunk widths at the first two
	// levels: its chunks miss twice, so the region is declared dead.
	inserted := insertAt(rnd, []int{80_000}, func(int) []byte { return randBytes(rng, 96_000) })

	// The paper's config, which these rows were recorded with.
	paper, paperCDC := PaperConfig(), PaperConfig()
	paperCDC.MapMode = MapCDC
	return []roundsCase{
		{name: "halving-default", old: text, cur: edited, cfg: paper},
		{name: "halving-decomposable", old: text, cur: edited, cfg: BasicConfig(),
			check: func(t *testing.T, srv *ServerFile, _ *ClientFile) {
				topUps := 0
				for _, r := range srv.Rounds() {
					topUps += r.TopUps
				}
				if topUps == 0 {
					t.Error("no round sent a top-up")
				}
			}},
		{name: "halving-signed", old: text, cur: edited, cfg: paper, precompute: true},
		{name: "cdc-shift", old: rnd, cur: shifted, cfg: paperCDC, predicts: true},
		{name: "cdc-signed", old: rnd, cur: shifted, cfg: paperCDC, emptySig: true,
			check: func(t *testing.T, srv *ServerFile, _ *ClientFile) {
				for b := srv.cfg.MinBlockSize / 2; b <= srv.cfg.MaxBlockSize; b *= 2 {
					if srv.sig.PeekLevel(b) != nil {
						t.Errorf("a CDC server built the level table of block size %d", b)
					}
				}
			}},
		{name: "cdc-dead", old: rnd, cur: inserted, cfg: paperCDC,
			check: func(t *testing.T, srv *ServerFile, cli *ClientFile) {
				if len(srv.cdcDead) == 0 || !slices.Equal(srv.cdcDead, cli.cdcDead) {
					t.Errorf("dead zones: server %v, client %v; want the same, not none", srv.cdcDead, cli.cdcDead)
				}
			}},
		// The default config: one verification batch a round, probes down
		// to 32 bytes.
		{name: "halving-one-batch", old: text, cur: edited, cfg: DefaultConfig()},
		{name: "cdc-one-batch", old: rnd, cur: shifted, cfg: cdcConfig(), predicts: true},
	}
}

// predictedChunks counts the CDC round's chunk candidates at an old-file
// offset no chunk of the round starts at: no chunk index lookup yields those,
// only an edge prediction.
func predictedChunks(t *testing.T, cli *ClientFile) int {
	var starts map[int]bool
	n := 0
	for ci, ei := range cli.candEntries {
		if cli.plan.entries[ei].kind == kProbe {
			continue
		}
		if starts == nil {
			cuts, err := cdc.CutsE(cli.fOld, cli.cfg.cdcParams(cli.b))
			if err != nil {
				t.Fatal(err)
			}
			starts = map[int]bool{0: true}
			for _, c := range cuts {
				starts[c] = true
			}
		}
		if !starts[cli.candOff[ci]] {
			n++
		}
	}
	return n
}

// TestRoundsGolden pins the md4 of every frame of each roundsCases session, in
// exchange order, at Workers 1 and 8: any change to a round's plan, hash
// section, candidate search or schedule shows here. The signed sessions must
// also equal their unsigned twins frame for frame. Rewrite the file with
// -update only when the wire is meant to move.
func TestRoundsGolden(t *testing.T) {
	var got strings.Builder
	sections := map[string]string{}
	for _, tc := range roundsCases() {
		var ref string
		for _, workers := range []int{1, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			srv, cli := newEngines(t, tc.old, tc.cur, &cfg)
			switch {
			case tc.precompute:
				sig, err := PrecomputeSignature(tc.cur, &cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv.UseSignature(sig)
			case tc.emptySig:
				srv.UseSignature(sigcache.NewSig(int64(len(tc.cur)), md4.Sum(tc.cur)))
			}
			predicted := 0
			var absorbed func()
			if tc.predicts {
				absorbed = func() { predicted += predictedChunks(t, cli) }
			}
			frames, _, out := runTranscript(t, srv, cli, absorbed)
			if !bytes.Equal(out, tc.cur) {
				t.Fatalf("%s workers=%d: reconstruction wrong", tc.name, workers)
			}
			if tc.check != nil {
				tc.check(t, srv, cli)
			}
			if tc.predicts && predicted == 0 {
				t.Errorf("%s workers=%d: no chunk candidate came from an edge prediction", tc.name, workers)
			}
			var sec strings.Builder
			for i, f := range frames {
				fmt.Fprintf(&sec, "%d %d %x\n", i, len(f), md4.Sum(f))
			}
			if ref == "" {
				ref = sec.String()
			} else if sec.String() != ref {
				t.Errorf("%s: frames at workers=%d differ from workers=1", tc.name, workers)
			}
		}
		sections[tc.name] = ref
		fmt.Fprintf(&got, "# %s\n%s", tc.name, ref)
	}
	for signed, plain := range map[string]string{"halving-signed": "halving-default", "cdc-signed": "cdc-shift"} {
		if sections[signed] != sections[plain] {
			t.Errorf("%s frames differ from %s", signed, plain)
		}
	}
	if *updateRounds {
		if err := os.WriteFile(roundsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(roundsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("frames differ from %s", roundsGolden)
	}
}

// fuzzEdit derives a new file from old and an edit seed: seed&3 picks
// scattered edits, one insertion, one deletion or one overwrite, and
// seed>>2 (mod 64 KiB) the length of that one edit.
func fuzzEdit(old []byte, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	size := int(seed>>2) & 0xffff
	pos := rng.Intn(len(old) + 1)
	switch seed & 3 {
	case 0:
		return mutate(old, 1+size%16, 64, rng)
	case 1:
		return insertAt(old, []int{pos}, func(int) []byte { return randBytes(rng, size) })
	case 2:
		return append(old[:pos:pos], old[min(len(old), pos+size):]...)
	default:
		out := slices.Clone(old)
		copy(out[pos:], randBytes(rng, size))
		return out
	}
}

// FuzzSyncLocalModes runs both planners on an old file and an edit of it,
// under the default's one verification batch (verify even) or the paper's
// two batches with salvage and alternate retries (verify odd): SyncLocal must
// converge, and every frame must be the same at Workers 1 and 2.
func FuzzSyncLocalModes(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	short := textLike(rng, DefaultConfig().MinBlockSize-1)
	text := textLike(rng, 20_000)
	rnd := randBytes(rng, 60_000)
	for mode := range uint8(2) {
		for verify := range uint8(2) {
			f.Add([]byte(nil), int64(0), mode, verify)
			f.Add(short, int64(5<<2|3), mode, verify)
			f.Add(text, int64(100<<2|1), mode, verify)   // a pure insertion
			f.Add(text, int64(8<<2), mode, verify)       // scattered edits: false candidates to salvage
			f.Add(rnd, int64(48_000<<2|1), mode, verify) // wide enough for a dead zone
		}
	}
	f.Fuzz(func(t *testing.T, old []byte, seed int64, mode, verify uint8) {
		cfg := DefaultConfig()
		cfg.MapMode = MapMode(mode % 2)
		if verify%2 == 1 {
			cfg.Verify = PaperConfig().Verify
		}
		cur := fuzzEdit(old, seed)
		if _, err := SyncLocal(old, cur, cfg); err != nil {
			t.Fatal(err) // SyncLocal checks its output against cur
		}
		cfg.Workers = 1
		ref, _, _ := transcriptSync(t, old, cur, cfg)
		cfg.Workers = 2
		if got, _, _ := transcriptSync(t, old, cur, cfg); !slices.EqualFunc(got, ref, bytes.Equal) {
			t.Fatalf("%v: frames at Workers 2 differ from Workers 1", cfg.MapMode)
		}
	})
}
