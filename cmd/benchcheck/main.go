// Command benchcheck is `make bench-check`: it measures the working tree
// against a base commit with the repository's benchmark and fails when any
// end-to-end metric on any workload is worse than its BENCHMARK.json bound.
//
// The base commit is checked out into a temporary git worktree. Both sides
// then run `go run ./benchmark -runs 1 -out …` in turns — base first on even
// rounds, working tree first on odd ones — so drift of the host (page cache,
// thermal state, a noisy neighbour) lands on both sides alike. Each side's
// rounds are merged into one run record and `go run ./benchmark -compare`
// judges them; its exit code is this command's.
//
// Run it from the repository root. The records of every round and the two
// merged ones stay under benchmark/out/bench-check/ (git-ignored, like all
// the benchmark writes) until the next check overwrites them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
)

func main() {
	runs := flag.Int("runs", 10, "rounds: each runs every workload once on the base and once on the working tree")
	seed := flag.Int64("seed", 42, "benchmark corpus seed")
	base := flag.String("base", "HEAD", "commit to compare the working tree against")
	flag.Parse()
	if *runs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: -runs is positive; there are no other arguments")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := check(ctx, *runs, *seed, *base)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		code = 1
	}
	os.Exit(code)
}

// recordDir is where the run records go, relative to the repository root.
const recordDir = "benchmark/out/bench-check"

// command runs name in dir with this process's standard streams.
func command(ctx context.Context, dir, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v in %s: %w", name, args, dir, err)
	}
	return nil
}

func check(ctx context.Context, runs int, seed int64, base string) (exit int, err error) {
	records, err := filepath.Abs(recordDir)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(records, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "msync-bench-check-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	parent := filepath.Join(tmp, "parent")
	if err := command(ctx, ".", "git", "worktree", "add", "--detach", parent, base); err != nil {
		return 0, err
	}
	// Not ctx: the worktree must go even when the check was interrupted.
	defer command(context.Background(), ".", "git", "worktree", "remove", "--force", parent)

	sides := []struct{ name, dir string }{{"parent", parent}, {"change", "."}}
	rounds := make([][]string, len(sides)) // per side, the records of its rounds
	for r := 0; r < runs; r++ {
		for k := range sides {
			i := (k + r) % len(sides) // alternate which side goes first
			out := filepath.Join(records, fmt.Sprintf("%s.%d.json", sides[i].name, r))
			fmt.Printf("# bench-check: round %d of %d, %s\n", r+1, runs, sides[i].name)
			if err := command(ctx, sides[i].dir, "go", "run", "./benchmark",
				"-runs", "1", "-seed", fmt.Sprint(seed), "-out", out); err != nil {
				return 0, err
			}
			rounds[i] = append(rounds[i], out)
		}
	}
	merged := make([]string, len(sides))
	for i, s := range sides {
		merged[i] = filepath.Join(records, s.name+".json")
		if err := mergeRecords(merged[i], rounds[i]); err != nil {
			return 0, err
		}
	}
	err = command(ctx, ".", "go", "run", "./benchmark", "-compare", merged[0], merged[1])
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 1 {
		return 1, nil // -compare printed the rows; at least one is "worse"
	}
	return 0, err
}

// mergeRecords writes to dst the first run record with every other record's
// runs appended workload by workload. Fields this command does not know are
// carried over untouched.
func mergeRecords(dst string, paths []string) error {
	type object = map[string]json.RawMessage
	var first object
	var workloads map[string]object
	runs := make(map[string][]json.RawMessage)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec object
		var wls map[string]object
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if err := json.Unmarshal(rec["workloads"], &wls); err != nil {
			return fmt.Errorf("%s: workloads: %w", p, err)
		}
		if first == nil {
			first, workloads = rec, wls
		}
		for name, wl := range wls {
			var rs []json.RawMessage
			if err := json.Unmarshal(wl["runs"], &rs); err != nil {
				return fmt.Errorf("%s: %s: runs: %w", p, name, err)
			}
			runs[name] = append(runs[name], rs...)
		}
	}
	var err error
	for name, wl := range workloads {
		if wl["runs"], err = json.Marshal(runs[name]); err != nil {
			return err
		}
	}
	if first["workloads"], err = json.Marshal(workloads); err != nil {
		return err
	}
	data, err := json.MarshalIndent(first, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
