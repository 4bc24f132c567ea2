package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"msync"
)

// smokeScale shrinks every corpus to about a fiftieth: the smoke test checks
// the harness, not msync's speed.
const smokeScale = "0.02"

// TestMain lets the test binary stand in for the harness's executable: a
// set-up, which the harness runs in a child process of its own executable,
// arrives here marked by the environment and is handed to run.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// captureRun runs the harness in-process with standard output captured.
func captureRun(t *testing.T, args ...string) (code int, out string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string, 1) // the reader's one result
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	code = run(args)
	os.Stdout = saved
	w.Close()
	out = <-done
	r.Close()
	return code, out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs all seven workloads, untraced and traced, at a fiftieth of
// their size and holds the output against BENCHMARK.json: every declared
// metric printed exactly once with its unit, nothing undeclared, and a result
// line of exactly the contract's shape.
func TestSmoke(t *testing.T) {
	specData, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared benchmarkSpec
	if err := json.Unmarshal(specData, &declared); err != nil {
		t.Fatal(err)
	}
	if len(declared.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(declared.Workloads), len(workloads))
	}
	units := map[int]map[string]string{0: {}, 1: {}}
	for _, d := range declared.EndToEnd {
		units[0][d.Name] = d.Unit
	}
	for _, d := range declared.PerLayer {
		units[1][d.Name] = d.Unit
	}
	for _, declaredUnits := range units {
		for name, unit := range declaredUnits {
			if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
				t.Errorf("metric %q with unit %q is outside the contract's alphabet", name, unit)
			}
		}
	}

	workDir := t.TempDir()
	for _, wd := range declared.Workloads {
		for trace := 0; trace <= 1; trace++ {
			code, out := captureRun(t, "--workload", wd.Name, "--seed", "42", "--seconds", "0.05",
				"--trace", strconv.Itoa(trace), "--scale", smokeScale, "--workdir", workDir)
			if code != 0 {
				t.Fatalf("%s trace=%d: exit code %d\n%s", wd.Name, trace, code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			printed := make(map[string]int)
			for _, line := range lines {
				f := strings.Fields(line)
				if len(f) == 0 || f[0] != "metric" {
					continue
				}
				if len(f) != 6 || f[1] != wd.Name {
					t.Errorf("%s trace=%d: malformed metric line %q", wd.Name, trace, line)
					continue
				}
				printed[f[2]]++
				if want, ok := units[trace][f[2]]; !ok {
					t.Errorf("%s trace=%d: undeclared metric %q printed", wd.Name, trace, f[2])
				} else if f[4] != want {
					t.Errorf("%s trace=%d: %s printed with unit %q, declared %q", wd.Name, trace, f[2], f[4], want)
				}
			}
			var res struct {
				Correct   *bool                             `json:"correct"`
				Attempted *int                              `json:"attempted"`
				Failed    *int                              `json:"failed"`
				Metrics   map[string]map[string]interface{} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", wd.Name, trace, err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil || !*res.Correct || *res.Attempted < 1 || *res.Failed != 0 {
				t.Errorf("%s trace=%d: result line %s", wd.Name, trace, lines[len(lines)-1])
			}
			for name, unit := range units[trace] {
				if printed[name] != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", wd.Name, trace, name, printed[name])
				}
				mv, ok := res.Metrics[name]
				if !ok || len(mv) != 2 || mv["unit"] != unit {
					t.Errorf("%s trace=%d: result line has %v for %s", wd.Name, trace, mv, name)
				} else if v, isNum := mv["value"].(float64); !isNum || (trace == 0 && v <= 0) {
					t.Errorf("%s trace=%d: %s has value %v", wd.Name, trace, name, mv["value"])
				}
			}
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%d: result line has %d metrics, %d declared", wd.Name, trace, len(res.Metrics), len(units[trace]))
			}
		}
		if _, err := os.Stat(filepath.Join(workDir, wd.Name+".trace.jsonl")); err != nil {
			t.Errorf("%s: the traced run left no span file: %v", wd.Name, err)
		}
	}
}

// TestSpecMatchesTables fails when BENCHMARK.json and the tables it is
// printed from have drifted apart.
func TestSpecMatchesTables(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -print-spec`; regenerate it")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestCorpusLock regenerates the pinned fingerprints: a drifted generator
// fails here, in tier 1, before it fails a measured run.
func TestCorpusLock(t *testing.T) {
	for i := range workloads {
		for _, seed := range lockedSeeds {
			fp, err := corpusFingerprint(&workloads[i], seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkLock(corpusLock, workloads[i].name, seed, fp); err != nil {
				t.Error(err)
			}
			if !strings.Contains(corpusLock, workloads[i].name+" "+"42 ") {
				t.Errorf("corpus.lock has no line for %s seed 42", workloads[i].name)
			}
		}
	}
	if err := checkLock(corpusLock, "src_cold", 42, "0000 files=0"); err == nil {
		t.Error("checkLock accepted a fingerprint that is not the pinned one")
	}
}

// oracleFixture is a three-file server tree, the client's older copy of it,
// and the result a correct lazy-result session would return.
func oracleFixture() (res *msync.Result, server, client map[string]fileSum) {
	kept, edited, added := []byte("kept"), []byte("edited, new"), []byte("added")
	server = map[string]fileSum{"kept": sumOf(kept), "edited": sumOf(edited), "added": sumOf(added)}
	client = map[string]fileSum{"kept": sumOf(kept), "edited": sumOf([]byte("edited, old")), "gone": sumOf([]byte("gone"))}
	res = &msync.Result{
		Files:     map[string][]byte{"edited": edited, "added": added},
		Unchanged: []string{"kept"},
		Deleted:   []string{"gone"},
	}
	return res, server, client
}

func TestOracle(t *testing.T) {
	res, server, client := oracleFixture()
	if err := checkResult(res, server, client); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	for name, corrupt := range map[string]func(*msync.Result, map[string]fileSum){
		"corrupted file":    func(r *msync.Result, _ map[string]fileSum) { r.Files["edited"] = []byte("edited, nEw") },
		"dropped deletion":  func(r *msync.Result, _ map[string]fileSum) { r.Deleted = nil },
		"spurious deletion": func(r *msync.Result, _ map[string]fileSum) { r.Deleted = append(r.Deleted, "kept") },
		"missing file":      func(r *msync.Result, _ map[string]fileSum) { delete(r.Files, "added") },
		"file server lacks": func(r *msync.Result, _ map[string]fileSum) { r.Files["stray"] = []byte("x") },
		"false unchanged": func(r *msync.Result, _ map[string]fileSum) {
			delete(r.Files, "edited")
			r.Unchanged = append(r.Unchanged, "edited")
		},
		"unchanged but stale": func(_ *msync.Result, c map[string]fileSum) { c["kept"] = sumOf([]byte("kept?")) },
		"written and unchanged": func(r *msync.Result, _ map[string]fileSum) {
			r.Unchanged = append(r.Unchanged, "added")
		},
	} {
		res, server, client := oracleFixture()
		corrupt(res, client)
		if err := checkResult(res, server, client); err == nil {
			t.Errorf("%s: the oracle accepted it", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDecl{Name: "session_s_p50", Bound: 0.10}
	exact := metricDecl{Name: "wire_bytes_per_session", Bound: 0.05}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.80, 1.00, 1.25, 0.90, 1.15}
	for _, c := range []struct {
		name      string
		d         metricDecl
		base, cur []float64
		want      string
	}{
		{"within the bound", d, steady, []float64{1.05, 1.06, 1.04, 1.05}, "same"},
		{"beyond the bound", d, steady, []float64{1.15, 1.16, 1.14, 1.15}, "worse"},
		{"faster", d, steady, []float64{0.85, 0.86, 0.84, 0.85}, "better"},
		{"too scattered to call", d, steady, noisy, "unresolved"},
		{"exact and equal", exact, []float64{1000}, []float64{1000}, "same"},
		{"exact, one byte more", exact, []float64{1000}, []float64{1001}, "worse"},
		{"exact, one byte fewer", exact, []float64{1000}, []float64{999}, "better"},
		{"nothing to compare", d, steady, nil, "unresolved"},
		{"one run a side", d, []float64{1.00}, []float64{1.01}, "unresolved"},
		{"three runs against five", d, steady, []float64{1.30, 1.31, 1.32}, "unresolved"},
	} {
		if got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
