package core

import (
	"bytes"
	"math/rand"
	"testing"

	"msync/internal/corpus"
)

// TestPlanDeterminism: server and client must derive byte-identical round
// plans from shared state — the protocol's lockstep invariant. We verify by
// instrumenting both engines mid-protocol.
func TestPlanDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	old := corpus.SourceText(rng, 80_000)
	em := corpus.EditModel{BurstsPer32KB: 5, BurstEdits: 5, EditSize: 60, BurstSpread: 400}
	cur := em.Apply(rng, old)

	cfg := DefaultConfig()
	srv, err := NewServerFile(cur, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientFile(old, len(cur), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	for srv.Active() {
		hashes := srv.EmitHashes()
		if err := cli.AbsorbHashes(hashes); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Both sides now hold this round's plan; compare structure.
		sp, cp := srv.plan, cli.plan
		if len(sp.entries) != len(cp.entries) {
			t.Fatalf("round %d: entry counts differ: %d vs %d", round, len(sp.entries), len(cp.entries))
		}
		for i := range sp.entries {
			se, ce := sp.entries[i], cp.entries[i]
			if se.kind != ce.kind || se.bits != ce.bits || se.off != ce.off || se.size != ce.size ||
				se.matchIdx != ce.matchIdx || se.matchIdx2 != ce.matchIdx2 || se.siblingIdx != ce.siblingIdx {
				t.Fatalf("round %d entry %d differs:\nserver %+v\nclient %+v", round, i, se, ce)
			}
		}
		if sp.b != cp.b {
			t.Fatalf("round %d: block sizes differ: %d vs %d", round, sp.b, cp.b)
		}
		more, err := srv.AbsorbReply(cli.EmitReply())
		if err != nil {
			t.Fatal(err)
		}
		for more {
			cliMore, err := cli.AbsorbConfirm(srv.EmitConfirm())
			if err != nil {
				t.Fatal(err)
			}
			if !cliMore {
				break
			}
			if more, err = srv.AbsorbBatch(cli.EmitBatch()); err != nil {
				t.Fatal(err)
			}
		}
		round++
	}
	out, err := cli.ApplyDelta(srv.EmitDelta())
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("final reconstruction: err=%v", err)
	}
	// After the client absorbs the final piggybacked confirms, the shared
	// bit accounting must agree exactly (the sides finalize at different
	// message boundaries, so only the final totals are comparable).
	if srv.bitsSpent != cli.bitsSpent {
		t.Fatalf("final bit accounting diverged: %d vs %d", srv.bitsSpent, cli.bitsSpent)
	}
	if len(srv.matches) != len(cli.matches) {
		t.Fatalf("match counts differ: %d vs %d", len(srv.matches), len(cli.matches))
	}
	for i := range srv.matches {
		if srv.matches[i].serverOff != cli.matches[i].serverOff ||
			srv.matches[i].length != cli.matches[i].length {
			t.Fatalf("match %d differs", i)
		}
	}
}

// TestGarbagePayloadsDoNotPanic feeds random bytes into every absorb entry
// point; errors are fine, panics are not.
func TestGarbagePayloadsDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		garbage := make([]byte, rng.Intn(200))
		rng.Read(garbage)

		cli, err := NewClientFile(corpus.SourceText(rng, 5000), 5000, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = cli.AbsorbHashes(garbage)

		srv, err := NewServerFile(corpus.SourceText(rng, 5000), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = srv.EmitHashes()
		_, _ = srv.AbsorbReply(garbage)

		cli2, err := NewClientFile(corpus.SourceText(rng, 5000), 5000, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli2.ApplyDelta(garbage); err == nil {
			t.Fatal("garbage delta accepted")
		}
	}
}

// TestInterruptedSessionState: absorbing a valid round then garbage must
// error out, not corrupt the engine into a panic on further use.
func TestInterruptedSessionState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	old := corpus.SourceText(rng, 20_000)
	cur := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 3, EditSize: 40, BurstSpread: 200}.Apply(rng, old)
	cfg := DefaultConfig()
	srv, _ := NewServerFile(cur, &cfg)
	cli, _ := NewClientFile(old, len(cur), &cfg)

	if err := cli.AbsorbHashes(srv.EmitHashes()); err != nil {
		t.Fatal(err)
	}
	reply := cli.EmitReply()
	// Corrupt the reply; the server must reject or mis-verify but not panic.
	bad := append([]byte(nil), reply...)
	if len(bad) > 0 {
		bad[len(bad)/2] ^= 0xFF
	}
	_, _ = srv.AbsorbReply(bad)
}

// TestZeroCandidateRounds: files with nothing in common still march through
// all rounds without candidates and fall back to pure delta.
func TestZeroCandidateRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	old := corpus.RandomText(rng, 30_000)
	cur := corpus.RandomText(rng, 30_000)
	res, err := SyncLocal(old, cur, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, cur) {
		t.Fatal("mismatch")
	}
	if res.Costs.MatchesConfirmed > 5 {
		t.Fatalf("%d spurious matches between random files", res.Costs.MatchesConfirmed)
	}
}

// TestManySmallEditsWorstCase: one edit per block is rsync's worst case
// (paper §2.3); msync should still reconstruct and not exceed the
// compressed full-transfer cost by much.
func TestManySmallEditsWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	old := corpus.SourceText(rng, 100_000)
	cur := append([]byte(nil), old...)
	// Flip one byte in every 700-byte block.
	for i := 350; i < len(cur); i += 700 {
		cur[i] ^= 0x55
	}
	res, err := SyncLocal(old, cur, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, cur) {
		t.Fatal("mismatch")
	}
	t.Logf("scattered single-byte edits: %d bytes (%.1f%% of file)",
		res.Costs.Total(), 100*float64(res.Costs.Total())/float64(len(cur)))
	// Continuation probes should still recover much of the file.
	if res.Costs.Total() > int64(len(cur))/2 {
		t.Errorf("cost %d too close to full size", res.Costs.Total())
	}
}

// TestWholeFileCheckCatchesFalseMatches: with 2-bit global hashes and 1-bit
// verification most candidates are false matches and half of those verify, so
// the map the engines agree on is wrong and ApplyDelta's whole-file check is
// all that stands between the client and a wrong file. Over fixed seeds (all
// but one confirm a false match; seed 39 in CDC mode does not) it returns
// exactly ErrVerifyFailed or the server's bytes, never anything else, and
// SyncLocal's full-transfer fallback then converges — for both map modes,
// serial and with the scan and verification fanned out.
func TestWholeFileCheckCatchesFalseMatches(t *testing.T) {
	for _, mode := range []MapMode{MapHalving, MapCDC} {
		for _, workers := range []int{1, 8} {
			tripped := 0
			for _, seed := range []int64{1, 2, 3, 39} {
				rng := rand.New(rand.NewSource(seed))
				old := corpus.SourceText(rng, 4000+rng.Intn(20_000))
				cur := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 50, BurstSpread: 300}.Apply(rng, old)
				cfg := DefaultConfig()
				cfg.MapMode, cfg.Workers = mode, workers
				cfg.MinHashBits, cfg.MaxHashBits, cfg.VerifyBits = 2, 2, 1

				srv, cli := mapRounds(t, old, cur, cfg) // any engine error is fatal there
				out, err := cli.ApplyDelta(srv.EmitDelta())
				switch {
				case err == ErrVerifyFailed && out == nil:
					tripped++
				case err != nil:
					t.Fatalf("%v workers %d seed %d: ApplyDelta returned %v (%d bytes), want ErrVerifyFailed or the file", mode, workers, seed, err, len(out))
				case !bytes.Equal(out, cur):
					t.Fatalf("%v workers %d seed %d: ApplyDelta accepted wrong bytes", mode, workers, seed)
				}
				res, lerr := SyncLocal(old, cur, cfg)
				if lerr != nil || !bytes.Equal(res.Output, cur) || res.FellBack != (err != nil) {
					t.Fatalf("%v workers %d seed %d: SyncLocal err %v, fell back %v after ApplyDelta's %v", mode, workers, seed, lerr, res != nil && res.FellBack, err)
				}
			}
			if tripped == 0 {
				t.Fatalf("%v workers %d: no seed confirmed a false match; the backstop went untested", mode, workers)
			}
		}
	}
}
