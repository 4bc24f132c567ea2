package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"msync/internal/corpus"
)

// transcriptSync drives both engines through a full session, recording every
// frame (both directions, in exchange order) so runs at different worker
// counts can be compared byte for byte.
func transcriptSync(t testing.TB, fOld, fNew []byte, cfg Config) (frames [][]byte, costs int64, out []byte) {
	t.Helper()
	srv, cli := newEngines(t, fOld, fNew, &cfg)
	return runTranscript(t, srv, cli, nil)
}

// newEngines starts both engines for one file under cfg.
func newEngines(t testing.TB, fOld, fNew []byte, cfg *Config) (*ServerFile, *ClientFile) {
	t.Helper()
	srv, err := NewServerFile(fNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientFile(fOld, len(fNew), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli
}

// runTranscript is transcriptSync over engines the caller built; absorbed,
// when set, runs after every AbsorbHashes, while the client's round candidates
// are in place. A failed whole-file check returns a nil out, not an error.
func runTranscript(t testing.TB, srv *ServerFile, cli *ClientFile, absorbed func()) (frames [][]byte, costs int64, out []byte) {
	t.Helper()
	record := func(frame []byte) {
		frames = append(frames, append([]byte(nil), frame...))
		costs += int64(len(frame))
	}
	for srv.Active() {
		hashes := srv.EmitHashes()
		record(hashes)
		if err := cli.AbsorbHashes(hashes); err != nil {
			t.Fatal(err)
		}
		if absorbed != nil {
			absorbed()
		}
		reply := cli.EmitReply()
		record(reply)
		more, err := srv.AbsorbReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		for more {
			confirm := srv.EmitConfirm()
			record(confirm)
			cliMore, err := cli.AbsorbConfirm(confirm)
			if err != nil {
				t.Fatal(err)
			}
			if !cliMore {
				t.Fatal("engine desync: server expects batch, client done")
			}
			batch := cli.EmitBatch()
			record(batch)
			more, err = srv.AbsorbBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	dl := srv.EmitDelta()
	record(dl)
	out, err := cli.ApplyDelta(dl)
	if err != nil && err != ErrVerifyFailed {
		t.Fatal(err)
	}
	return frames, costs, out
}

// TestParallelWireDeterminism is the tentpole invariant: for Workers in
// {1, 2, 8}, every frame of the session must be byte-identical to the serial
// run, on files large enough that the sharded scan path actually engages
// (old file ≫ scanMinShard positions). Both halving configurations and CDC
// mode are swept.
func TestParallelWireDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	old := corpus.SourceText(rng, 300_000)
	em := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 3, EditSize: 50, BurstSpread: 300}
	cur := em.Apply(rng, old)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default-poly", DefaultConfig()},
		{"basic-poly", BasicConfig()},
		{"cdc", cdcConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			refFrames, refCost, refOut := transcriptSync(t, old, cur, cfg)
			if !bytes.Equal(refOut, cur) {
				t.Fatal("serial reconstruction wrong")
			}
			for _, w := range []int{2, 8} {
				cfg.Workers = w
				frames, cost, out := transcriptSync(t, old, cur, cfg)
				if cost != refCost {
					t.Errorf("workers=%d: wire cost %d, serial %d", w, cost, refCost)
				}
				if len(frames) != len(refFrames) {
					t.Fatalf("workers=%d: %d frames, serial %d", w, len(frames), len(refFrames))
				}
				for i := range frames {
					if !bytes.Equal(frames[i], refFrames[i]) {
						t.Fatalf("workers=%d: frame %d differs from serial run", w, i)
					}
				}
				if !bytes.Equal(out, cur) {
					t.Errorf("workers=%d: reconstruction wrong", w)
				}
			}
		})
	}
}

// TestParallelCostsMatchSerial checks the full stats surface (not just byte
// totals) through the SyncLocal driver across the worker matrix.
func TestParallelCostsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	old := corpus.SourceText(rng, 200_000)
	cur := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 80, BurstSpread: 500}.Apply(rng, old)

	cfg := DefaultConfig()
	cfg.Workers = 1
	ref, err := SyncLocal(old, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		cfg.Workers = w
		res, err := SyncLocal(old, cur, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Costs != ref.Costs {
			t.Errorf("workers=%d: costs %+v\nserial %+v", w, res.Costs, ref.Costs)
		}
		if res.Rounds != ref.Rounds {
			t.Errorf("workers=%d: rounds %d, serial %d", w, res.Rounds, ref.Rounds)
		}
	}
}

// TestParallelEngineStress hammers many concurrent engine rounds at high
// worker counts — the shape the collection layer produces — so the race
// detector can observe the sharded scans and pooled verification hashing
// under real contention (run via go test -race).
func TestParallelEngineStress(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := DefaultConfig()
	cfg.Workers = 8

	type filePair struct{ old, cur []byte }
	pairs := make([]filePair, 6)
	for i := range pairs {
		old := corpus.SourceText(rng, 80_000+i*17_000)
		em := corpus.EditModel{BurstsPer32KB: float64(2 + i%3), BurstEdits: 3, EditSize: 40 + 10*i, BurstSpread: 250}
		pairs[i] = filePair{old, em.Apply(rng, old)}
	}
	done := make(chan error, len(pairs))
	for i := range pairs {
		go func(p filePair) {
			res, err := SyncLocal(p.old, p.cur, cfg)
			if err == nil && !bytes.Equal(res.Output, p.cur) {
				err = fmt.Errorf("reconstruction mismatch")
			}
			done <- err
		}(pairs[i])
	}
	for range pairs {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
