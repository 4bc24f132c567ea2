package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"msync"
)

// sessionResult is what one operation of the closed loop yields.
type sessionResult struct {
	err error // build, sync, serve, apply or oracle failure

	wall  time.Duration // build both ends → sync → Apply
	apply time.Duration
	cpu   time.Duration // process user+sys over the same interval
	// Heap activity over the same interval (both ends, one process).
	mallocs    uint64
	allocBytes uint64

	client *msync.Costs // Result.Costs
	server *msync.Costs // Serve's costs: journal and server-side hashing counters
	// Bytes seen on the client's end of the pipe.
	c2s, s2c int64

	// Traced sessions only.
	events         []msync.TraceEvent
	clientReadWait time.Duration
	serverReadWait time.Duration
}

// maxCostsGap is how many bytes a session's Costs may fall short of what the
// pipe carried before the session counts as failed. The pipe is the truth
// (wire_bytes_per_session reports it); Costs is cross-checked against it. At
// this PR's parent Costs misses one byte per session, reported as
// collection.costs_gap_bytes.
const maxCostsGap = 16

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runSession runs one operation: build both ends from scratch over what is
// on disk, synchronize through the in-memory pipe, apply the result, and —
// outside every timer — check it against the oracle. With rec non-nil the
// session is traced: both ends carry a RingTracer, both pipe ends time their
// reads, and every call into the library is a span.
func runSession(wl *workload, w *world, rec *recorder, session int, check bool) (out sessionResult) {
	traced := rec != nil
	sopts, copts := wl.serverOpts(w), wl.clientOpts(w)
	var ring *msync.RingTracer
	if traced {
		ring = msync.NewRingTracer(1 << 14)
		sopts = append(sopts, msync.WithTracer(ring))
		copts = append(copts, msync.WithTracer(ring))
	}
	if wl.journal {
		copts = append(copts, msync.WithBaseVersion(w.version))
	}

	// Every session starts on a collected heap, as the two fresh CLI
	// processes it stands for would: the previous session's garbage and the
	// oracle's are not this session's to collect, and where in its GC cycle
	// the process happens to be no longer decides the peak.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	root := rec.begin("session", 0, session)

	sp := rec.begin("collection.build_server", root, session)
	var srv *msync.Server
	var err error
	if wl.journal {
		srv, _, err = msync.NewStoreServer(w.serverRoot, w.sub("store"), msync.DefaultConfig(), sopts...)
		if err == nil {
			snap := rec.begin("collection.snapshot", sp, session)
			_, err = srv.Snapshot()
			rec.end(snap)
		}
	} else {
		srv, _, err = msync.NewDirServer(w.serverRoot, msync.DefaultConfig(), sopts...)
	}
	rec.end(sp)
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		out.err = fmt.Errorf("build server: %w", err)
		return out
	}
	defer srv.Close()

	sp = rec.begin("collection.build_client", root, session)
	cli, _, err := msync.NewDirClient(w.clientRoot, copts...)
	rec.end(sp)
	if err != nil {
		out.err = fmt.Errorf("build client: %w", err)
		return out
	}

	a, b := msync.Pipe()
	sEnd := &meterConn{inner: a, timed: traced}
	cEnd := &meterConn{inner: b, timed: traced}
	type served struct {
		costs *msync.Costs
		err   error
		span  int
	}
	done := make(chan served, 1) // one send, so the server never blocks on a client that gave up
	go func() {
		sp := rec.begin("collection.serve", root, session)
		costs, err := srv.Serve(sEnd)
		rec.end(sp)
		a.Close()
		done <- served{costs, err, sp}
	}()
	syncSpan := rec.begin("collection.sync", root, session)
	res, err := cli.Sync(cEnd)
	rec.end(syncSpan)
	b.Close()
	sv := <-done
	if err == nil {
		err = sv.err
	}
	if err != nil {
		out.err = fmt.Errorf("sync: %w", err)
		return out
	}

	target := w.clientRoot
	if !wl.journal {
		target = w.scratch()
	}
	sp = rec.begin("dirio.apply", root, session)
	tApply := time.Now()
	err = res.Apply(target)
	out.apply = time.Since(tApply)
	rec.end(sp)
	if wl.journal {
		// The close releases the store's journal handle; the next
		// operation opens it again, as the next CLI invocation would.
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	rec.end(root)
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		out.err = fmt.Errorf("apply: %w", err)
		return out
	}

	out.client, out.server = res.Costs, sv.costs
	out.c2s, out.s2c = cEnd.written.Load(), cEnd.read.Load()
	if traced {
		out.events = ring.Events()
		out.clientReadWait = time.Duration(cEnd.readWait.Load())
		out.serverReadWait = time.Duration(sEnd.readWait.Load())
		for _, e := range out.events {
			parent := syncSpan
			if e.Side == "server" {
				parent = sv.span
			}
			rec.add("collection."+e.Side+"."+e.Phase, e.Time.Add(-e.Dur), e.Time, parent, session)
		}
	}

	if check {
		if err := checkResult(res, w.server, w.client); err != nil {
			out.err = err
		} else if gap := out.c2s + out.s2c - res.Costs.Total(); gap < 0 || gap > maxCostsGap {
			out.err = fmt.Errorf("oracle: Costs report %d wire bytes, the pipe carried %d", res.Costs.Total(), out.c2s+out.s2c)
		} else if wl.expect != nil {
			if err := wl.expect(&out); err != nil {
				out.err = fmt.Errorf("%s: %w", wl.name, err)
			}
		}
	}
	if wl.journal {
		// The client tree now is the server tree.
		w.version = res.Version
		w.client = make(map[string]fileSum, len(w.server))
		for p, s := range w.server {
			w.client[p] = s
		}
	} else if err := os.RemoveAll(target); err != nil && out.err == nil {
		out.err = err
	}
	return out
}

// advance moves a journal_live server tree forward one version. It is the
// untimed part of an operation.
func (w *world) advance() error {
	w.step++
	next, err := journalChurn(w.seed, w.step, w.paths, w.loadServer, w.emitServer)
	if err != nil {
		return err
	}
	w.paths = next
	return nil
}
