package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"msync"
	"msync/internal/stats"
)

// tracedSessions is how many sessions of a traced run at least carry the
// tracer and the timing pipe wrapper.
const tracedSessions = 5

// sessionShare is the part of a traced run's seconds spent on sessions; the
// rest is left to the layer replay.
const sessionShare = 0.5

// runTraced is the traced run of one workload: untraced and traced sessions
// taking turns — so that whatever drifts over the run drifts under both —
// then the layer replay. It returns every per-layer metric and the sessions
// it attempted and failed.
func runTraced(wl *workload, w *world, seconds float64, traceOut string) (map[string]float64, int, int, error) {
	m := make(map[string]float64, len(perLayer))
	rec := newRecorder()
	plain, traced := &loopStats{}, &loopStats{}
	budget := time.Duration(sessionShare * seconds * float64(time.Second))
	for start := time.Now(); plain.failed+traced.failed == 0 && (traced.attempted < tracedSessions || time.Since(start) < budget); {
		for _, turn := range []struct {
			ls  *loopStats
			rec *recorder
		}{{plain, nil}, {traced, rec}} {
			one, err := runLoop(wl, w, turn.rec, 0, 1, 1+plain.attempted+traced.attempted)
			if err != nil {
				return nil, 0, 0, err
			}
			turn.ls.merge(one)
		}
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	if failed > 0 {
		firstErr := plain.firstErr
		if firstErr == nil {
			firstErr = traced.firstErr
		}
		return m, attempted, failed, firstErr
	}

	p50 := median(plain.walls)
	m["obs.trace_overhead_pct"] = 100 * (median(traced.walls)/p50 - 1)
	m["collection.session_hi_pct"], m["collection.session_s_hi"] = highPercentile(plain.walls)
	m["collection.sessions"] = float64(len(plain.walls))
	m["collection.mb_per_s"] = mb(w.serverBytes()) / p50
	m["collection.failed_share"] = float64(failed) / float64(attempted)
	// The high-water mark of the sessions alone: set-up ran in another
	// process and the replay has not started.
	m["collection.peak_rss_mb"] = peakRSSMB()
	costMetrics(m, append(plain.sessions, traced.sessions...))
	phaseMetrics(m, traced.sessions)
	m["sigcache.cold_fill_s"] = w.coldFill.Seconds()

	if wl.journal {
		// The client has caught up with the server; move the server on, so
		// the replay has changed pairs to work on.
		if err := w.advance(); err != nil {
			return nil, 0, 0, err
		}
	}
	rp, err := newReplay(wl, w, rec, frameClasses(traced.sessions[0].events), m)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := rp.run(); err != nil {
		return nil, 0, 0, err
	}
	if children := m["core.new_engines_s"] + m["core.emit_hashes_s"] + m["core.absorb_hashes_s"] + m["core.verify_s"] +
		m["core.emit_delta_s"] + m["core.apply_delta_s"]; children < 0.95*m["core.file_s"] {
		fmt.Fprintf(os.Stderr, "benchmark: warning: the children of core.file_s sum to %.6f s, under 95%% of the parent's %.6f s\n", children, m["core.file_s"])
	}
	if err := rec.writeJSONL(filepath.Join(traceOut, wl.name+".trace.jsonl")); err != nil {
		return nil, 0, 0, err
	}
	return m, attempted, failed, nil
}

// costMetrics are the per-session means of what Result.Costs and the
// server's Costs count.
func costMetrics(m map[string]float64, sessions []sessionResult) {
	sums := make(map[string]float64)
	add := func(name string, v float64) { sums[name] += v }
	var hits, lookups float64
	for _, s := range sessions {
		c, sc := s.client, s.server
		add("collection.control_bytes", float64(c.PhaseTotal(stats.PhaseControl)))
		add("collection.map_bytes", float64(c.PhaseTotal(stats.PhaseMap)))
		add("collection.delta_bytes", float64(c.PhaseTotal(stats.PhaseDelta)))
		add("collection.full_bytes", float64(c.PhaseTotal(stats.PhaseFull)))
		add("collection.costs_gap_bytes", float64(s.c2s+s.s2c-c.Total()))
		add("collection.files_synced", float64(c.FilesSynced))
		add("collection.files_full", float64(c.FilesFull))
		add("collection.files_unchanged", float64(c.FilesUnchanged))
		add("collection.files_renamed", float64(c.FilesRenamed))
		add("collection.files_journal", float64(c.FilesJournal))
		add("collection.files_cdc", float64(c.FilesCDC))
		add("collection.tree_rounds", float64(c.TreeRounds))
		// The journal and hashing counters are the server's: whether it
		// served from the store, and what serving cost it in hashing.
		add("collection.journal_hits", float64(sc.JournalHits))
		add("collection.journal_misses", float64(sc.JournalMisses))
		add("collection.bytes_hashed", float64(sc.BytesHashed))
		add("collection.block_hashes_computed", float64(sc.BlockHashesComputed))
		add("sigcache.evictions", float64(c.CacheEvictions+sc.CacheEvictions))
		hits += float64(c.CacheHits + sc.CacheHits)
		lookups += float64(c.CacheHits + sc.CacheHits + c.CacheMisses + sc.CacheMisses)
	}
	for name, v := range sums {
		m[name] = v / float64(len(sessions))
	}
	if lookups > 0 {
		m["sigcache.hit_ratio"] = hits / lookups
	}
}

// phaseMetrics are the per-session means of the public tracer's spans and of
// the timing pipe wrapper, over the traced sessions.
func phaseMetrics(m map[string]float64, sessions []sessionResult) {
	n := float64(len(sessions))
	phases := map[string]string{
		"handshake": "collection.phase_handshake_s", "tree": "collection.phase_tree_s",
		"round": "collection.phase_round_s", "verify": "collection.phase_verify_s",
		"delta": "collection.phase_delta_s", "full": "collection.phase_full_s",
	}
	for _, s := range sessions {
		for _, e := range s.events {
			switch {
			case e.Phase == "session" && e.Side == "client":
				m["collection.client_session_s"] += e.Dur.Seconds() / n
				m["collection.frames_per_session"] += float64(e.Frames) / n
			case e.Phase == "session":
				m["collection.server_session_s"] += e.Dur.Seconds() / n
			case e.Side == "client" && phases[e.Phase] != "":
				m[phases[e.Phase]] += e.Dur.Seconds() / n
			}
		}
		m["transport.client_read_wait_s"] += s.clientReadWait.Seconds() / n
		m["transport.server_read_wait_s"] += s.serverReadWait.Seconds() / n
	}
}

// frameClasses turns one session's client-side spans into the frame-size
// histogram the wire replay writes: per span, its frame count at its mean
// payload size.
func frameClasses(events []msync.TraceEvent) []frameClass {
	var classes []frameClass
	for _, e := range events {
		if e.Side != "client" || e.Phase == "session" || e.Frames == 0 {
			continue
		}
		size := int(e.BytesUp+e.BytesDown)/e.Frames - 2 // less type and length bytes
		if size < 0 {
			size = 0
		}
		classes = append(classes, frameClass{size, e.Frames})
	}
	return classes
}
