package main

import (
	"errors"
	"fmt"
	"time"

	"msync"
	"msync/internal/stats"
)

// workload is one named set of inputs and one configuration of the two
// endpoints. Sizes are fixed numbers here (BENCHMARK.json has no field for
// them); scale shrinks them for the smoke test only.
type workload struct {
	name string
	why  string
	// gen writes version 1 (client) and version 2 (server) of the corpus.
	gen func(seed int64, scale float64, emit emitFunc) error
	// serverOpts and clientOpts build the options of one session's ends.
	// Both are called anew for every session: nothing in memory survives
	// from one session to the next, only what is on disk under w.
	serverOpts func(w *world) []msync.Option
	clientOpts func(w *world) []msync.Option
	// mapMode is the map-construction mode the client asks for; the replay
	// hands it to the engines it drives itself.
	mapMode msync.MapMode
	// warmCaches runs one untimed cold session in set-up, so the measured
	// sessions find both signature caches filled.
	warmCaches bool
	// expect checks that a session took the path the workload is there to
	// measure; a session that did not counts as failed. nil: no such check.
	expect func(s *sessionResult) error
	// journal marks journal_live: a store-backed server, a tree that moves
	// forward one version per operation, and a client that applies in place.
	journal bool
}

// sigcacheMem is the in-memory budget of a signature cache, the CLI default.
const sigcacheMem = 64 << 20

// journal_live's store has no budget. The issue wanted one small enough for
// the GC to run several times within a run; at the parent commit a collection
// rescues delta blobs as full blobs, which makes the store larger, so the
// first collection cascades down to one retained version and every later
// client's announced version is gone before it is served (README, "what the
// first run shows"). A workload whose operations fall back to the full
// protocol after the fifteenth would measure two different things under one
// name, and a budget that never fires is no budget. The collection is timed
// in the traced run's store replay instead (store.snapshot_gc_s).

func lazy(*world) []msync.Option { return []msync.Option{msync.WithLazyResult()} }

func none(*world) []msync.Option { return nil }

var workloads = []workload{
	{
		name: "src_cold",
		why:  "gcc-like source tree, 35% of files edited, CLI defaults: rolling scan, match/verify, md4, delta and disk reads share the work",
		gen:  genSource, serverOpts: none, clientOpts: lazy,
	},
	{
		name: "src_warm",
		why:  "same trees with warm signature caches on both ends: hashing is bypassed, so an md4/dirio gain must not show here",
		gen:  genSource,
		serverOpts: func(w *world) []msync.Option {
			return []msync.Option{msync.WithSignatureCache(w.sub("cache-server"), sigcacheMem)}
		},
		clientOpts: func(w *world) []msync.Option {
			return []msync.Option{msync.WithLazyResult(), msync.WithSignatureCache(w.sub("cache-client"), sigcacheMem)}
		},
		warmCaches: true,
		expect: func(s *sessionResult) error {
			if misses := s.client.CacheMisses + s.server.CacheMisses; misses > 0 {
				return fmt.Errorf("%d signature-cache misses on warm caches", misses)
			}
			return nil
		},
	},
	{
		name: "tiny_flat",
		why:  "thousands of 0.2-2 KB files, 1% edited, flat manifest and lockstep: open/stat, per-file md4, manifest and framing dominate",
		gen:  genTiny, serverOpts: none, clientOpts: lazy,
	},
	{
		name: "tiny_tree",
		why:  "same trees through merkle manifest, speculative descent, cross-file match and 16 mux streams: bypasses the flat-manifest path",
		gen:  genTiny,
		serverOpts: func(*world) []msync.Option {
			return []msync.Option{msync.WithTreeManifest(), msync.WithMuxStreams(16)}
		},
		clientOpts: func(*world) []msync.Option {
			return []msync.Option{msync.WithLazyResult(), msync.WithTreeManifest(),
				msync.WithSpeculativeDescent(), msync.WithCrossFileMatch(), msync.WithMuxStreams(16)}
		},
		expect: func(s *sessionResult) error {
			if s.client.TreeRounds == 0 {
				return errors.New("no merkle descent: the session fell back to the flat manifest")
			}
			return nil
		},
	},
	{
		name: "big_halving",
		why:  "one DB dump, one VM image, one heavy log of 2 MB each, halving map: sharded scan, big-buffer delta and peak memory dominate",
		gen:  genBig, serverOpts: none, clientOpts: lazy,
		expect: func(s *sessionResult) error {
			if s.client.FilesCDC != 0 {
				return fmt.Errorf("%d files synced in CDC mode on the halving workload", s.client.FilesCDC)
			}
			return nil
		},
	},
	{
		name: "big_cdc",
		why:  "same three large files with content-defined chunk maps: exercises cdc and the (length, hash) index, bypasses the rolling scan",
		gen:  genBig, serverOpts: none,
		clientOpts: func(*world) []msync.Option {
			return []msync.Option{msync.WithLazyResult(), msync.WithMapMode(msync.MapCDC)}
		},
		mapMode: msync.MapCDC,
		expect: func(s *sessionResult) error {
			if s.client.FilesCDC == 0 {
				return errors.New("no file synced in CDC mode: the server did not grant it")
			}
			return nil
		},
	},
	{
		name: "journal_live",
		why:  "store-backed server moving one version per op at 1% churn: each op pays a snapshot append and a journal-delta read",
		gen:  genJournalBase, serverOpts: none, clientOpts: lazy,
		journal: true,
		expect: func(s *sessionResult) error {
			if s.server.JournalHits != 1 || s.client.PhaseTotal(stats.PhaseMap) != 0 {
				return errors.New("not served from the journal: the session ran the full protocol")
			}
			return nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setUp generates the workload's corpus under dir, brings caches and the
// store to the state the measured sessions start from, and saves the world's
// state file. Everything it does is what setup_s times.
func (wl *workload) setUp(dir string, seed int64, scale float64) (*world, error) {
	w, err := newWorld(dir, !wl.journal)
	if err != nil {
		return nil, err
	}
	if err := wl.gen(seed, scale, w.emit); err != nil {
		return nil, err
	}
	w.seed = seed
	switch {
	case wl.warmCaches:
		t0 := time.Now()
		s := runSession(wl, w, nil, 0, false)
		if s.err != nil {
			return nil, fmt.Errorf("cold cache fill: %w", s.err)
		}
		w.coldFill, w.coldFillMallocs = time.Since(t0), s.mallocs
	case wl.journal:
		// Both ends hold version 1; cut it, so the first operation's client
		// has a version to announce. Step 1 of the churn goes into the
		// fingerprint without touching the tree.
		srv, _, err := msync.NewStoreServer(w.serverRoot, w.sub("store"), msync.DefaultConfig(), wl.serverOpts(w)...)
		if err != nil {
			return nil, err
		}
		w.version, err = srv.Snapshot()
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		w.paths = w.serverPaths()
		lock := func(path string, v1, v2 []byte) error {
			w.fp.add(path, v1, v2, sumOf(v1).Sum, sumOf(v2).Sum)
			return nil
		}
		if _, err := journalChurn(seed, 1, w.paths, w.loadServer, lock); err != nil {
			return nil, err
		}
	}
	w.corpus = w.fp.String()
	return w, w.save()
}
