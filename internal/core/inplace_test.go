package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/corpus"
	"msync/internal/stats"
)

// syncLocalInPlace mirrors SyncLocal but applies the delta in place.
func syncLocalInPlace(fOld, fNew []byte, cfg Config) ([]byte, *stats.Costs, error) {
	srv, err := NewServerFile(fNew, &cfg)
	if err != nil {
		return nil, nil, err
	}
	cli, err := NewClientFile(append([]byte(nil), fOld...), len(fNew), &cfg)
	if err != nil {
		return nil, nil, err
	}
	costs := &stats.Costs{}
	for srv.Active() {
		hashes := srv.EmitHashes()
		if err := cli.AbsorbHashes(hashes); err != nil {
			return nil, nil, err
		}
		more, err := srv.AbsorbReply(cli.EmitReply())
		if err != nil {
			return nil, nil, err
		}
		for more {
			cliMore, err := cli.AbsorbConfirm(srv.EmitConfirm())
			if err != nil {
				return nil, nil, err
			}
			if !cliMore {
				break
			}
			more, err = srv.AbsorbBatch(cli.EmitBatch())
			if err != nil {
				return nil, nil, err
			}
		}
	}
	out, st, err := cli.ApplyDeltaInPlace(srv.EmitDelta())
	if err != nil {
		return nil, nil, err
	}
	costs.Add(stats.S2C, stats.PhaseMap, int(st.ExtraBytes)) // reuse field loosely for reporting
	return out, costs, nil
}

func TestApplyDeltaInPlaceMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2000 + rng.Intn(40_000)
		old := corpus.SourceText(rng, size)
		em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
		cur := em.Apply(rng, old)
		out, _, err := syncLocalInPlace(old, cur, DefaultConfig())
		if err == ErrVerifyFailed {
			// A false match can slip through verification and be caught by
			// the whole-file check (seed 3823963842317910609 does this). It
			// only passes here if the ordinary apply of the same session
			// fails its check too; a wrong in-place reference or tiling
			// would fail alone.
			res, lerr := SyncLocal(old, cur, DefaultConfig())
			return lerr == nil && res.FellBack
		}
		return err == nil && bytes.Equal(out, cur)
	}
	if !f(3823963842317910609) {
		t.Fatal("in-place and ordinary apply disagree on the known false-match seed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaInPlaceGrowShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := corpus.SourceText(rng, 20_000)
	bigger := append(append([]byte(nil), base...), corpus.SourceText(rng, 10_000)...)
	smaller := base[:8_000]
	for _, tc := range [][2][]byte{{base, bigger}, {bigger, smaller}, {smaller, base}} {
		out, _, err := syncLocalInPlace(tc[0], tc[1], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, tc[1]) {
			t.Fatal("in-place mismatch on resize")
		}
	}
}

func TestApplyDeltaInPlaceReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	old := corpus.SourceText(rng, 50_000)
	cur := append([]byte(nil), old...)
	copy(cur[25_000:], []byte("one tiny edit"))

	cfg := DefaultConfig()
	srv, err := NewServerFile(cur, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldBuf := append([]byte(nil), old...)
	cli, err := NewClientFile(oldBuf, len(cur), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for srv.Active() {
		if err := cli.AbsorbHashes(srv.EmitHashes()); err != nil {
			t.Fatal(err)
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
	}
	out, st, err := cli.ApplyDeltaInPlace(srv.EmitDelta())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, cur) {
		t.Fatal("mismatch")
	}
	// Same length: the result must live in the original backing array.
	if &out[0] != &oldBuf[0] {
		t.Fatal("in-place apply did not reuse the old buffer")
	}
	// Extra space should be a tiny fraction for an aligned edit.
	if st.ExtraBytes > len(cur)/10 {
		t.Fatalf("extra space %d for a single small edit", st.ExtraBytes)
	}
	t.Logf("in-place: %d copies, %d literals, %d buffered (%d extra bytes)",
		st.Copies, st.Literals, st.Buffered, st.ExtraBytes)
}
