package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []perLayerDecl `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// perLayerDecl is a metricDecl without its bound: per-layer metrics have none.
type perLayerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, wl := range workloads {
		s.Workloads = append(s.Workloads, workloadDecl{wl.name, wl.why})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, perLayerDecl{d.Name, d.Unit, d.Better})
	}
	return s
}

// printSpec writes BENCHMARK.json as the tables in spec.go and workloads.go
// define it.
func printSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec())
}

// suiteRecord is the run record of a whole-suite run: where and how it ran,
// and for every workload each run's result.
type suiteRecord struct {
	Host      hostRecord                 `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Loop      string                     `json:"loop"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Why    string     `json:"why"`
	Runs   []childRun `json:"runs"`
	Traced []childRun `json:"traced,omitempty"`
}

type childRun struct {
	Record runRecord `json:"record"`
	Result result    `json:"result"`
}

// runSuite runs every workload in a child process of its own, one at a time,
// so that neither resident memory nor GC state nor caches pass from one
// workload to the next. It prints the children's metric lines and writes the
// run record.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := suiteRecord{Host: host(), Seed: o.seed, Seconds: o.seconds, Loop: loopShape, Workloads: make(map[string]*workloadRecord)}
	failed := 0
	for _, wl := range workloads {
		wr := &workloadRecord{Why: wl.why}
		rec.Workloads[wl.name] = wr
		for trace := 0; trace <= o.trace; trace++ {
			runs := o.runs
			if trace == 1 {
				runs = 1
			}
			for i := 0; i < runs; i++ {
				cr, err := runChild(self, wl.name, trace, o)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				failed += cr.Result.Failed
				if trace == 1 {
					wr.Traced = append(wr.Traced, *cr)
				} else {
					wr.Runs = append(wr.Runs, *cr)
				}
			}
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# run record written to %s\n", o.out)
	if failed > 0 {
		return fmt.Errorf("%d sessions failed", failed)
	}
	return nil
}

// runChild runs one workload once in a child process and parses its output.
// The child has ended when this returns.
func runChild(self, workload string, trace int, o options) (*childRun, error) {
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "--workdir", o.workDir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var cr childRun
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &cr.Result) != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("the run printed no result line")
	}
	if rec, ok := strings.CutPrefix(lines[len(lines)-2], "# record "); ok {
		if err := json.Unmarshal([]byte(rec), &cr.Record); err != nil {
			return nil, err
		}
	}
	return &cr, nil
}
