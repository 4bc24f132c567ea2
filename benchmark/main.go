// Command benchmark is msync's benchmark: seven disk-backed synchronization
// workloads driven through the public msync API, eight end-to-end metrics, and
// a traced run that replays each workload's own data through every internal
// layer. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark --workload src_cold --seed 42 --seconds 10 --trace 0
//
// runs one workload in this process and prints its metrics, the last line of
// standard output being the result as one JSON object. Without --workload
// every workload runs, each in a child process, and a run record is written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// loopShape is the load every workload puts on the system.
const loopShape = "closed, 1 client, sessions back to back, in-memory pipe (no real link)"

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	scale      float64
	workDir    string
	setupDir   string
	runs       int
	out        string
	updateLock bool
	printSpec  bool
	compare    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 42, "the only input to corpus generation")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	fs.Float64Var(&o.scale, "scale", 1, "corpus scale; anything but 1 is for the smoke test, not for measuring")
	fs.StringVar(&o.workDir, "workdir", "benchmark/out", "where trees, caches, stores and traces go; made if missing")
	fs.StringVar(&o.setupDir, "setup-dir", "", "internal: set the workload up under this directory and exit")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: untraced runs per workload; -compare judges medians and spreads over them")
	fs.StringVar(&o.out, "out", "benchmark/out/result.json", "without -workload: where the run record goes")
	fs.BoolVar(&o.updateLock, "update-lock", false, "regenerate "+lockFile+" and exit")
	fs.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json from the metric tables and exit")
	fs.BoolVar(&o.compare, "compare", false, "compare two run records: -compare BASE.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.printSpec:
		err = printSpec(os.Stdout)
	case o.updateLock:
		err = updateLock()
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two run records: BASE.json NEW.json")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	default:
		if o.trace != 0 && o.trace != 1 || o.seconds <= 0 || o.scale <= 0 || o.runs < 1 || fs.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1; -seconds, -scale and -runs are positive; there are no other arguments")
			return 2
		}
		if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
			fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS %d exceeds the host's %d CPUs; the load must not be wider than the machine\n", p, n)
			return 2
		}
		switch {
		case o.workload == "":
			err = runSuite(o)
		case o.setupDir != "":
			var wl *workload
			if wl, err = findWorkload(o.workload); err == nil {
				_, err = wl.setUp(o.setupDir, o.seed, o.scale)
			}
		default:
			err = runWorkload(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostRecord is what a result is worth nothing without.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func host() hostRecord {
	h := hostRecord{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GOGC: os.Getenv("GOGC"), Commit: "unknown"}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runRecord is what a single-workload run adds to its metrics for the run
// record: the corpus it ran on and the sample count behind the timings.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Corpus   string  `json:"corpus"`
	Sessions int     `json:"sessions"`
	Setups   int     `json:"setups"`
}

// runWorkload is one run of one workload in this process.
func runWorkload(o options) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	h := host()
	fmt.Printf("# msync benchmark: workload=%s seed=%d seconds=%g trace=%d scale=%g\n", wl.name, o.seed, o.seconds, o.trace, o.scale)
	fmt.Printf("# load: %s; nproc=%d GOMAXPROCS=%d %s GOGC=%s commit=%s\n", loopShape, h.NProc, h.GOMAXPROCS, h.Go, h.GOGC, h.Commit)

	setupTotal := setupShare * o.seconds
	if o.trace == 1 {
		setupTotal = 0 // a traced run does not report setup_s and sets up once
	}
	w, setupSecs, err := setUpRepeatedly(wl, o.workDir, o.seed, o.scale, setupTotal)
	if err != nil {
		return err
	}
	defer w.remove()
	fmt.Printf("# corpus: %s\n", w.corpus)
	if wl.warmCaches {
		fmt.Printf("# cold cache fill in set-up: %.3f s, %d mallocs\n", w.coldFill.Seconds(), w.coldFillMallocs)
	}
	if o.scale == 1 {
		if err := checkLock(corpusLock, wl.name, o.seed, w.corpus); err != nil {
			return err
		}
	}
	// One untimed operation first: the page cache holds both trees and the
	// heap has grown to its working size before anything is measured.
	if wl.journal {
		if err := w.advance(); err != nil {
			return err
		}
	}
	if s := runSession(wl, w, nil, 0, true); s.err != nil {
		return fmt.Errorf("warm-up session: %w", s.err)
	}

	var values map[string]float64
	var decls []metricDecl
	var attempted, failed int
	var firstErr error
	if o.trace == 1 {
		decls = perLayer
		values, attempted, failed, firstErr = runTraced(wl, w, o.seconds, o.workDir)
		if firstErr != nil && failed == 0 {
			return firstErr
		}
		if values["pool.effective_workers"] == 1 && wl.name == "big_halving" {
			fmt.Fprintln(os.Stderr, "benchmark: warning: pool.effective_workers is 1; big_halving never ran its scan in parallel on this host")
		}
	} else {
		decls = endToEnd
		ls, err := runLoop(wl, w, nil, time.Duration(o.seconds*float64(time.Second)), exactSessions, 1)
		if err != nil {
			return err
		}
		attempted, failed, firstErr = ls.attempted, ls.failed, ls.firstErr
		if len(ls.sessions) >= exactSessions {
			values = endToEndMetrics(ls, setupSecs)
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(decls))}
	samples := attempted - failed
	for _, d := range decls {
		n := samples
		if d.Name == "setup_s" {
			n = len(setupSecs)
		}
		fmt.Printf("metric %-13s %-34s %16.6f %-6s n=%d\n", wl.name, d.Name, values[d.Name], d.Unit, n)
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	rr, _ := json.Marshal(runRecord{wl.name, o.seed, o.seconds, o.trace, o.scale, w.corpus, samples, len(setupSecs)})
	fmt.Printf("# record %s\n", rr)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions failed; the first: %v", failed, attempted, firstErr)
	}
	return nil
}
