// Command msync synchronizes directory trees over TCP using the multi-round
// map-construction protocol.
//
// Server (holds the current data):
//
//	msync -serve :9440 -dir /data/current
//
// Client (holds an outdated copy; updates it in place):
//
//	msync -connect host:9440 -dir /data/replica
//	msync -connect host:9440 -dir /data/replica -dry   # report cost only
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// dials, drains in-flight sessions for -grace, then force-closes stragglers.
// Clients bound each protocol round with -round-timeout and retry transient
// dial/handshake failures -retry times with exponential backoff.
//
// Under load the server can bound its concurrency: -max-sessions caps the
// sessions served at once, -max-queued lets a burst wait for a slot, and
// anything beyond that is answered with a BUSY frame carrying a retry-after
// hint that retrying clients honor automatically. -handshake-timeout evicts
// dials that go idle before completing the opening exchange so they cannot
// pin scarce slots.
//
// Both roles accept -workers to bound local hashing/scanning parallelism,
// the tree walk and the manifest included (0 = all CPUs, 1 = serial). The setting never changes the bytes exchanged —
// each side picks its own value independently.
//
// With -cache-dir both roles keep a persistent signature cache keyed by
// (path, size, mtime, config): repeat syncs of unchanged files cost a stat
// instead of a hash. -cache-mem bounds the in-memory layer in MiB and
// -cache-paranoid re-verifies every hit by re-reading the file (for trees
// where edits may restore size and mtime). The cache is purely local — it is
// never sent over the wire, and traffic is byte-identical with or without it.
//
// Observability is opt-in on both roles and never changes the bytes on the
// wire:
//
//	-log-level info          structured logs (slog) to stderr
//	-trace-out trace.jsonl   per-phase span events as JSON Lines
//	-debug-addr 127.0.0.1:0  HTTP /metrics, /debug/vars and /debug/pprof/*
//
// With -store-dir the server keeps a persistent version store: immutable
// snapshots of the collection with precomputed per-version change journals.
// A serving process cuts a snapshot at startup; -snapshot cuts one and exits
// (printing the version) without serving. -store-budget bounds the store in
// MiB — oldest versions are garbage-collected first, the latest never is.
// Clients pass -base-version N (from a previous run's report) to be answered
// with the stored journal delta instead of fresh map construction; servers
// that cannot honor it fall back to the normal protocol automatically.
//
// Publish mode inverts the deployment for one-writer/many-readers fan-out:
//
//	msync -dir /data/current -publish-dir /data/artifacts              # snapshot a version
//	msync -dir /data/current -publish-dir /data/artifacts -serve :9441 # publish, then serve artifacts
//	msync -dir /data/replica -from-url http://host:9441                # reader: reconcile
//	msync -dir /data/replica -from-url http://host:9441 -base-version 3
//
// The publisher writes immutable, content-addressed artifacts (manifest,
// per-file signatures and blobs, version deltas); the server side is plain
// HTTP with strong ETags and immutable cache headers, so replicas and CDNs
// need no msync at all. Readers match locally and fetch only missing byte
// ranges; -base-version rides the /since delta path, and -dry and -json
// apply as in the interactive client.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"msync"
	"msync/internal/dirio"
	"msync/internal/obs"
)

func main() {
	var (
		serve     = flag.String("serve", "", "listen address for server mode (e.g. :9440)")
		connect   = flag.String("connect", "", "server address for client mode")
		dir       = flag.String("dir", ".", "directory to serve or update")
		dry       = flag.Bool("dry", false, "client: do not write, just report cost")
		basic     = flag.Bool("basic", false, "use the basic protocol (no continuation/group testing)")
		minB      = flag.Int("bmin", 0, "override minimum block size (power of two)")
		tree      = flag.Bool("tree", false, "use merkle-tree change detection instead of a flat manifest")
		specDesc  = flag.Bool("spec-descent", false, "client: with -tree, request speculative descent (multi-level answers, ~half the descent roundtrips)")
		crossFile = flag.Bool("cross-file", false, "client: with -tree, request cross-file matching (renames copied locally, moved-and-edited files synced from their old path)")
		timeout   = flag.Duration("timeout", 0, "overall session deadline (0 = none)")
		roundTO   = flag.Duration("round-timeout", 2*time.Minute, "per-round I/O deadline; stalled peers fail fast (0 = none)")
		retries   = flag.Int("retry", 3, "client: attempts for dial/handshake failures (1 = no retry)")
		grace     = flag.Duration("grace", 30*time.Second, "server: drain period for in-flight sessions on shutdown")
		maxSess   = flag.Int("max-sessions", 0, "server: max concurrent sessions; over-capacity dials queue or get a BUSY answer (0 = unlimited)")
		maxQueued = flag.Int("max-queued", 0, "server: connections allowed to wait for a session slot before shedding (0 = shed immediately)")
		handshake = flag.Duration("handshake-timeout", 0, "server: deadline for a session's opening exchange; evicts idle dials pinning slots (0 = none)")
		jsonOut   = flag.Bool("json", false, "client: print costs as JSON")
		push      = flag.Bool("push", false, "client: push local (newer) data to the server instead of pulling")
		allowPush = flag.Bool("allow-push", false, "server: accept pushes and update -dir")
		workers   = flag.Int("workers", 0, "worker goroutines for hashing/scanning (0 = all CPUs, 1 = serial); wire output is identical for every value")
		muxWidth  = flag.Int("mux-streams", 0, "multiplexed streams per session: clients request the width, servers cap it; interleaves per-file rounds on one connection (0 = legacy lockstep)")
		mapMode   = flag.String("map-mode", "halving", "client: map-construction mode to request (halving, cdc); cdc derives block boundaries from content-defined chunks — best for shift-heavy data; servers that don't support it fall back to halving")
		cacheDir  = flag.String("cache-dir", "", "persistent signature cache directory; repeat syncs of unchanged files skip hashing (never changes the bytes on the wire)")
		cacheMem  = flag.Int64("cache-mem", 64, "signature cache in-memory budget in MiB")
		paranoid  = flag.Bool("cache-paranoid", false, "re-verify every signature cache hit by re-reading the file (catches edits that restore size+mtime)")
		logLevel  = flag.String("log-level", "", "structured logging to stderr at this level (debug, info, warn, error); empty disables")
		traceOut  = flag.String("trace-out", "", "write per-phase trace events as JSON Lines to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this HTTP address (e.g. 127.0.0.1:6060)")

		publishDir = flag.String("publish-dir", "", "publish mode: artifact-store directory; alone, snapshot -dir into versioned artifacts and exit; with -serve, publish then serve the artifact HTTP surface")
		fromURL    = flag.String("from-url", "", "publish mode: update -dir from this publish-server base URL (pairs with -base-version, -dry, -json)")

		storeDir    = flag.String("store-dir", "", "server: persistent version-store directory; snapshots with change journals answer announcing clients without map construction")
		storeBudget = flag.Int64("store-budget", 0, "server: version-store size budget in MiB; oldest versions are garbage-collected first (0 = unlimited)")
		snapshot    = flag.Bool("snapshot", false, "cut one store version from -dir into -store-dir, print it, and exit (no serving)")
		baseVersion = flag.Int64("base-version", -1, "client: announce this store version as the local copy's base; a server holding it answers from its journal (-1 = no announcement)")
	)
	flag.Parse()

	validateFlags(*workers, *retries, *cacheMem, *maxSess, *maxQueued)
	if *muxWidth < 0 {
		fatalf("msync: -mux-streams must be >= 0 (got %d)", *muxWidth)
	}
	if *storeBudget < 0 {
		fatalf("msync: -store-budget must be >= 0 (got %d)", *storeBudget)
	}
	if (*storeBudget > 0 || *snapshot) && *storeDir == "" {
		fatalf("msync: -store-budget and -snapshot require -store-dir")
	}
	extra := cacheOptions(*cacheDir, *cacheMem, *paranoid)
	obsOpts, obsClose := obsSetup(*debugAddr, *traceOut, *logLevel)
	extra = append(extra, obsOpts...)
	extra = append(extra, storeOptions(*storeDir, *storeBudget)...)
	if *muxWidth > 0 {
		extra = append(extra, msync.WithMuxStreams(*muxWidth))
	}
	mm, err := msync.ParseMapMode(*mapMode)
	if err != nil {
		fatalf("msync: %v", err)
	}
	if mm != msync.MapHalving {
		extra = append(extra, msync.WithMapMode(mm))
	}
	if *specDesc {
		extra = append(extra, msync.WithSpeculativeDescent())
	}
	if *crossFile {
		extra = append(extra, msync.WithCrossFileMatch())
	}
	switch {
	case *serve != "" && *connect != "":
		fatalf("msync: -serve and -connect are mutually exclusive")
	case *fromURL != "" && (*serve != "" || *connect != "" || *publishDir != ""):
		fatalf("msync: -from-url is exclusive with -serve, -connect and -publish-dir")
	case *publishDir != "" && *connect != "":
		fatalf("msync: -publish-dir cannot be combined with -connect")
	case *fromURL != "":
		runPublishSync(*fromURL, *dir, *dry, *baseVersion, *jsonOut)
		obsClose()
	case *publishDir != "" && *serve != "":
		code := runPublishServe(*serve, *dir, *publishDir, *grace)
		obsClose()
		os.Exit(code)
	case *publishDir != "":
		runPublish(*dir, *publishDir)
		obsClose()
	case *snapshot:
		runSnapshot(*dir, buildConfig(*basic, *minB), *workers, extra)
		obsClose()
	case *serve != "":
		extra = append(extra,
			msync.WithMaxSessions(*maxSess),
			msync.WithMaxQueued(*maxQueued),
			msync.WithHandshakeTimeout(*handshake))
		code := runServer(*serve, *dir, buildConfig(*basic, *minB), *allowPush, *storeDir != "", *timeout, *roundTO, *grace, *workers, extra)
		obsClose()
		os.Exit(code)
	case *connect != "" && *push:
		runPush(*connect, *dir, buildConfig(*basic, *minB), *tree, *timeout, *roundTO, *workers, extra)
	case *connect != "":
		runClient(*connect, *dir, *dry, *tree, *timeout, *roundTO, *retries, *baseVersion, *jsonOut, *workers, extra)
	default:
		flag.Usage()
		os.Exit(2)
	}
	obsClose()
}

// runPublish snapshots dir into the artifact store and prints the version.
// Publishing an unchanged tree is free and reuses the existing version.
func runPublish(dir, artifactDir string) {
	store, err := msync.NewArtifactDir(artifactDir)
	if err != nil {
		log.Fatalf("msync: opening artifact store %s: %v", artifactDir, err)
	}
	v, created, err := msync.PublishDir(dir, store, 0)
	if err != nil {
		log.Fatalf("msync: publish: %v", err)
	}
	if created {
		log.Printf("msync: published %s as v%d into %s", dir, v, artifactDir)
	} else {
		log.Printf("msync: %s unchanged, still v%d", dir, v)
	}
	fmt.Printf("v%d\n", v)
}

// runPublishServe publishes dir, then serves the artifact HTTP surface:
// /latest, /v/<n>/manifest, /v/<n>/sig/<hex>, /v/<n>/blob/<hex>,
// /since/<base> and /health. The server performs no per-reader computation;
// any HTTP cache in front of it can absorb the read load.
func runPublishServe(addr, dir, artifactDir string, grace time.Duration) int {
	store, err := msync.NewArtifactDir(artifactDir)
	if err != nil {
		log.Fatalf("msync: opening artifact store %s: %v", artifactDir, err)
	}
	v, created, err := msync.PublishDir(dir, store, 0)
	if err != nil {
		log.Fatalf("msync: publish: %v", err)
	}
	h, err := msync.PublishHandler(store)
	if err != nil {
		log.Fatalf("msync: publish server: %v", err)
	}
	if created {
		log.Printf("msync: published %s as v%d; serving artifacts on %s", dir, v, addr)
	} else {
		log.Printf("msync: serving v%d (unchanged) on %s", v, addr)
	}

	srv := &http.Server{Addr: addr, Handler: h}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan int, 1)
	go func() {
		sig := <-sigc
		log.Printf("msync: %v: draining requests (grace %v)", sig, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("msync: forced shutdown: %v", err)
			drained <- 1
			return
		}
		drained <- 0
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	return <-drained
}

// runPublishSync updates dir from a publish server, announcing baseVersion
// (when >= 0) for the /since delta fast path.
func runPublishSync(url, dir string, dry bool, baseVersion int64, jsonOut bool) {
	sy := &msync.PublishSyncer{BaseURL: url, DryRun: dry}
	if baseVersion > 0 {
		sy.BaseVersion = uint64(baseVersion)
	}
	res, err := sy.Sync(context.Background(), dir)
	if err != nil {
		log.Fatalf("msync: publish sync: %v", err)
	}
	if jsonOut {
		enc, err := json.Marshal(res)
		if err != nil {
			log.Fatalf("msync: encoding result: %v", err)
		}
		fmt.Println(string(enc))
	} else {
		fmt.Printf("v%d: %d synced, %d full, %d unchanged, %d deleted; %d bytes down (delta path: %v)\n",
			res.Version, res.FilesSynced, res.FilesFull, res.FilesUnchanged, res.FilesDeleted,
			res.BytesDown, res.DeltaPath)
	}
	log.Printf("msync: %s at v%d (pass -base-version %d next time)", dir, res.Version, res.Version)
}

// fatalf reports a usage or setup error as one stderr line and exits with
// status 2 (the flag package's own usage-error status).
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// validateFlags rejects numeric flag values the lower layers would otherwise
// silently misinterpret (a negative worker count reads as "all CPUs", a
// negative retry budget as "never even try").
func validateFlags(workers, retries int, cacheMem int64, maxSess, maxQueued int) {
	if workers < 0 {
		fatalf("msync: -workers must be >= 0 (got %d)", workers)
	}
	if retries < 0 {
		fatalf("msync: -retry must be >= 0 (got %d)", retries)
	}
	if cacheMem < 0 {
		fatalf("msync: -cache-mem must be >= 0 (got %d)", cacheMem)
	}
	if maxSess < 0 {
		fatalf("msync: -max-sessions must be >= 0 (got %d)", maxSess)
	}
	if maxQueued < 0 {
		fatalf("msync: -max-queued must be >= 0 (got %d)", maxQueued)
	}
	if maxQueued > 0 && maxSess == 0 {
		fatalf("msync: -max-queued requires -max-sessions")
	}
}

// obsSetup wires the observability flags: structured logging, JSONL span
// tracing, and the HTTP debug endpoint (metrics + pprof). Malformed values
// are rejected up front with a one-line error. The returned cleanup closes
// the trace file on orderly exits; trace writes are unbuffered, so nothing
// is lost on the log.Fatal paths that bypass it.
func obsSetup(debugAddr, traceOut, logLevel string) ([]msync.Option, func()) {
	var opts []msync.Option
	cleanup := func() {}
	if logLevel != "" {
		lvl, err := obs.ParseLevel(logLevel)
		if err != nil {
			fatalf("msync: -log-level: %v", err)
		}
		h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
		opts = append(opts, msync.WithLogger(slog.New(h)))
	}
	if traceOut != "" {
		tr, err := msync.OpenJSONLTracer(traceOut)
		if err != nil {
			fatalf("msync: -trace-out: %v", err)
		}
		opts = append(opts, msync.WithTracer(tr))
		cleanup = func() {
			if err := tr.Close(); err != nil {
				log.Printf("msync: trace output: %v", err)
			}
		}
	}
	if debugAddr != "" {
		// Listen now so a malformed or busy address fails the command
		// instead of surfacing as a dead endpoint mid-sync.
		l, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fatalf("msync: -debug-addr %q: %v", debugAddr, err)
		}
		reg := msync.NewMetricsRegistry()
		opts = append(opts, msync.WithMetrics(reg))
		go func() { _ = http.Serve(l, obs.DebugMux(reg)) }()
		log.Printf("msync: debug endpoint on http://%s/metrics", l.Addr())
	}
	return opts, cleanup
}

// storeOptions translates the -store-* flags into Options.
func storeOptions(dir string, budgetMiB int64) []msync.Option {
	if dir == "" {
		return nil
	}
	opts := []msync.Option{msync.WithStore(dir)}
	if budgetMiB > 0 {
		opts = append(opts, msync.WithStoreBudget(budgetMiB<<20))
	}
	return opts
}

// runSnapshot cuts one store version from dir and exits: the offline way to
// record history between serving runs (the serving path snapshots at
// startup by itself).
func runSnapshot(dir string, cfg msync.Config, workers int, extra []msync.Option) {
	opts := append([]msync.Option{msync.WithWorkers(workers)}, extra...)
	srv, werrs, err := msync.NewDirServer(dir, cfg, opts...)
	for _, we := range werrs {
		log.Printf("msync: warning: %v", we)
	}
	if err != nil {
		log.Fatalf("msync: opening %s: %v", dir, err)
	}
	v, err := srv.Snapshot()
	if err != nil {
		srv.Close()
		log.Fatalf("msync: snapshot: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("msync: closing store: %v", err)
	}
	fmt.Printf("v%d\n", v)
}

// cacheOptions translates the -cache-* flags into Options. The cache is
// enabled only when -cache-dir is set: without persistence, one-shot CLI
// processes have nothing to warm.
func cacheOptions(dir string, memMiB int64, paranoid bool) []msync.Option {
	if dir == "" {
		return nil
	}
	opts := []msync.Option{msync.WithSignatureCache(dir, memMiB<<20)}
	if paranoid {
		opts = append(opts, msync.WithParanoidCache())
	}
	return opts
}

func buildConfig(basic bool, minBlock int) msync.Config {
	cfg := msync.DefaultConfig()
	if basic {
		cfg = msync.BasicConfig()
	}
	if minBlock > 0 {
		cfg.MinBlockSize = minBlock
	}
	return cfg
}

func runServer(addr, dir string, cfg msync.Config, allowPush, store bool, timeout, roundTO, grace time.Duration, workers int, extra []msync.Option) int {
	opts := []msync.Option{
		msync.WithTimeout(timeout),
		msync.WithRoundTimeout(roundTO),
		msync.WithWorkers(workers),
		msync.WithSessionHook(func(ev msync.SessionEvent) {
			if ev.Err != nil {
				log.Printf("msync: session %s failed after %v: %v", ev.RemoteAddr, ev.Duration.Round(time.Millisecond), ev.Err)
				return
			}
			log.Printf("msync: session %s: %d bytes in %v", ev.RemoteAddr, ev.Costs.Total(), ev.Duration.Round(time.Millisecond))
		}),
	}
	opts = append(opts, extra...)

	var srv *msync.Server
	var err error
	if allowPush {
		// A receiving server materializes the collection: adopting a push
		// needs the full before-map to compute deletions on disk.
		files, err := dirio.Load(dir)
		if err != nil {
			log.Fatalf("msync: loading %s: %v", dir, err)
		}
		before := files
		opts = append(opts, msync.WithPush(func(updated map[string][]byte) {
			if err := dirio.Apply(dir, before, updated); err != nil {
				log.Printf("msync: persisting push: %v", err)
				return
			}
			before = updated
			log.Printf("msync: adopted pushed update (%d files)", len(updated))
		}))
		srv, err = msync.NewServer(files, cfg, opts...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("msync: serving %d files from %s on %s", len(files), dir, addr)
	} else {
		var werrs []error
		srv, werrs, err = msync.NewDirServer(dir, cfg, opts...)
		for _, we := range werrs {
			log.Printf("msync: warning: %v", we)
		}
		if err != nil {
			log.Fatalf("msync: opening %s: %v", dir, err)
		}
		log.Printf("msync: serving %s on %s (streamed)", dir, addr)
	}
	if store {
		// Record the state being served so announcing clients can ride the
		// journal from here on.
		v, err := srv.Snapshot()
		if err != nil {
			log.Fatalf("msync: snapshot: %v", err)
		}
		log.Printf("msync: store version v%d", v)
	}

	// SIGINT/SIGTERM trigger a graceful drain bounded by -grace. The
	// accept loop returns ErrServerClosed as soon as the drain begins, so
	// main must wait for the drain itself before exiting.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan int, 1)
	go func() {
		sig := <-sigc
		log.Printf("msync: %v: draining sessions (grace %v)", sig, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("msync: forced shutdown: %v", err)
			drained <- 1
			return
		}
		log.Print("msync: drained cleanly")
		drained <- 0
	}()

	err = srv.ListenAndServe(addr)
	if err != nil && err != msync.ErrServerClosed {
		log.Fatal(err)
	}
	return <-drained
}

func runPush(addr, dir string, cfg msync.Config, tree bool, timeout, roundTO time.Duration, workers int, extra []msync.Option) {
	opts := []msync.Option{msync.WithTimeout(timeout), msync.WithRoundTimeout(roundTO), msync.WithWorkers(workers)}
	opts = append(opts, extra...)
	if tree {
		opts = append(opts, msync.WithTreeManifest())
	}
	srv, werrs, err := msync.NewDirServer(dir, cfg, opts...)
	for _, we := range werrs {
		log.Printf("msync: warning: %v", we)
	}
	if err != nil {
		log.Fatalf("msync: opening %s: %v", dir, err)
	}
	costs, err := srv.PushTCP(addr)
	if err != nil {
		log.Fatalf("msync: push: %v", err)
	}
	fmt.Println(costs.String())
	log.Printf("msync: pushed %s to %s", dir, addr)
}

func runClient(addr, dir string, dry, tree bool, timeout, roundTO time.Duration, retries int, baseVersion int64, jsonOut bool, workers int, extra []msync.Option) {
	retry := msync.DefaultRetryPolicy()
	retry.MaxAttempts = retries
	opts := []msync.Option{
		msync.WithTimeout(timeout),
		msync.WithRoundTimeout(roundTO),
		msync.WithDialTimeout(timeout),
		msync.WithRetry(retry),
		msync.WithWorkers(workers),
		msync.WithLazyResult(),
	}
	opts = append(opts, extra...)
	if tree {
		opts = append(opts, msync.WithTreeManifest())
	}
	if baseVersion >= 0 {
		opts = append(opts, msync.WithBaseVersion(uint64(baseVersion)))
	}
	cl, werrs, err := msync.NewDirClient(dir, opts...)
	for _, we := range werrs {
		log.Printf("msync: warning: %v", we)
	}
	if err != nil {
		log.Fatalf("msync: opening %s: %v", dir, err)
	}
	res, err := cl.SyncTCP(addr)
	if err != nil {
		log.Fatalf("msync: sync: %v", err)
	}
	if jsonOut {
		enc, err := json.Marshal(res.Costs)
		if err != nil {
			log.Fatalf("msync: encoding costs: %v", err)
		}
		fmt.Println(string(enc))
	} else {
		fmt.Println(res.Costs.String())
	}
	if dry {
		return
	}
	if err := res.Apply(dir); err != nil {
		log.Fatalf("msync: writing results: %v", err)
	}
	log.Printf("msync: %s updated (%d written, %d unchanged, %d deleted)",
		dir, len(res.Files), len(res.Unchanged), len(res.Deleted))
	if res.Version > 0 {
		log.Printf("msync: server store version v%d (pass -base-version %d next time)",
			res.Version, res.Version)
	}
}
