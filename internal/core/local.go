package core

import (
	"bytes"
	"context"
	"fmt"

	"msync/internal/delta"
	"msync/internal/stats"
)

// LocalResult reports the outcome of an in-process synchronization.
type LocalResult struct {
	// Costs holds exact per-phase wire costs (section payload bytes).
	Costs stats.Costs
	// Output is the reconstructed current file.
	Output []byte
	// Rounds is the number of map-construction rounds executed.
	Rounds int
	// RoundDetails holds per-round diagnostics (entry mix, candidates,
	// confirmations, coverage growth, bits spent).
	RoundDetails []RoundStats
	// FellBack reports that the whole-file check failed and the file was
	// (virtually) retransmitted in full.
	FellBack bool
}

// SyncLocal runs the complete per-file protocol with both engines in
// process, returning exact wire costs. This is the workhorse of the
// experiment harness: it produces the same byte counts as a networked run
// minus collection-level framing. It is SyncLocalContext with a background
// context.
func SyncLocal(fOld, fNew []byte, cfg Config) (*LocalResult, error) {
	return SyncLocalContext(context.Background(), fOld, fNew, cfg)
}

// SyncLocalContext is SyncLocal with a cancellation checkpoint at every
// protocol round, so long experiment sweeps over large corpora can be
// aborted promptly.
func SyncLocalContext(ctx context.Context, fOld, fNew []byte, cfg Config) (*LocalResult, error) {
	srv, err := NewServerFile(fNew, &cfg)
	if err != nil {
		return nil, err
	}
	cli, err := NewClientFile(fOld, len(fNew), &cfg)
	if err != nil {
		return nil, err
	}
	res := &LocalResult{}

	for srv.Active() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: sync cancelled: %w", err)
		}
		if !cli.Active() {
			return nil, fmt.Errorf("core: engine desync: server active, client done")
		}
		hashes := srv.EmitHashes()
		res.Costs.Add(stats.S2C, stats.PhaseMap, len(hashes))
		if err := cli.AbsorbHashes(hashes); err != nil {
			return nil, err
		}
		reply := cli.EmitReply()
		res.Costs.Add(stats.C2S, stats.PhaseMap, len(reply))
		more, err := srv.AbsorbReply(reply)
		if err != nil {
			return nil, err
		}
		res.Costs.Roundtrips++
		res.Rounds++
		for more {
			confirm := srv.EmitConfirm()
			res.Costs.Add(stats.S2C, stats.PhaseMap, len(confirm))
			cliMore, err := cli.AbsorbConfirm(confirm)
			if err != nil {
				return nil, err
			}
			if !cliMore {
				return nil, fmt.Errorf("core: engine desync: server expects batch, client done")
			}
			batch := cli.EmitBatch()
			res.Costs.Add(stats.C2S, stats.PhaseMap, len(batch))
			more, err = srv.AbsorbBatch(batch)
			if err != nil {
				return nil, err
			}
			res.Costs.Roundtrips++
		}
	}

	dl := srv.EmitDelta()
	res.Costs.Add(stats.S2C, stats.PhaseDelta, len(dl))
	res.Costs.Roundtrips++
	out, err := cli.ApplyDelta(dl)
	if err == ErrVerifyFailed {
		full := delta.Compress(fNew)
		res.Costs.Add(stats.S2C, stats.PhaseFull, len(full))
		res.Costs.FilesFull++
		res.FellBack = true
		out, err = delta.Decompress(full)
	}
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out, fNew) {
		return nil, fmt.Errorf("core: reconstruction mismatch (internal error)")
	}
	res.Output = out
	res.RoundDetails = srv.Rounds()
	res.Costs.FilesSynced = 1
	if cfg.MapMode == MapCDC {
		res.Costs.FilesCDC = 1
		res.Costs.CDCChunks = srv.CDCChunks + cli.CDCChunks
	}
	res.Costs.HashesSent = srv.HashesSent
	res.Costs.CandidatesFound = srv.CandidatesSeen
	res.Costs.MatchesConfirmed = srv.MatchesConfirmed
	res.Costs.FalseCandidates = srv.CandidatesSeen - srv.MatchesConfirmed
	return res, nil
}
