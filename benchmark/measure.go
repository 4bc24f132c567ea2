package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// The paper's slow link, as the repo's DSL LinkModel has it: 1 Mbit/s down,
// 256 kbit/s up, 80 ms round trip. No real link is in the loop; dsl_sync_s
// adds what these numbers make of the session's bytes and roundtrips to the
// measured wall time.
const (
	dslDownBps = 125_000.0
	dslUpBps   = 32_000.0
	dslRTT     = 0.080
)

// exactSessions is how many sessions the byte and roundtrip metrics average
// over: the first five of the loop, which every run has. On six workloads all
// sessions are identical and the choice does not matter; journal_live's
// operations each sync another version, so averaging over however many the
// clock allowed would make wire_bytes_per_session depend on the host's speed.
const exactSessions = 5

// Set-up runs at least setupRepeats times per measured run, and on until the
// set-ups have taken setupShare of the run's seconds together or there are
// setupMaxRepeats of them: a 0.15 s set-up (big_*) scatters by a quarter
// between single measurements, and the median of nine costs a second.
// setup_s is the median; the last set-up is the one the sessions run on.
const (
	setupRepeats    = 3
	setupMaxRepeats = 9
	setupShare      = 0.15
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile returns the highest percentile of v that still has at least
// ten samples beyond it, and its value. With fewer than twenty samples no
// percentile above the median qualifies; it then returns the maximum as the
// 100th, which is a single sample and says so by its percentile.
func highPercentile(v []float64) (pct, value float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// loopStats is the measured loop, reduced.
type loopStats struct {
	attempted, failed int
	walls             []float64 // seconds, successful sessions
	sessions          []sessionResult
	firstErr          error
}

// merge appends another loop's sessions.
func (ls *loopStats) merge(o *loopStats) {
	ls.attempted += o.attempted
	ls.failed += o.failed
	ls.walls = append(ls.walls, o.walls...)
	ls.sessions = append(ls.sessions, o.sessions...)
	if ls.firstErr == nil {
		ls.firstErr = o.firstErr
	}
}

// runLoop runs sessions back to back — closed loop, one client — until the
// budget is spent, and at least minSessions. A journal_live tree moves one
// version forward before each operation, outside the timers.
func runLoop(wl *workload, w *world, rec *recorder, budget time.Duration, minSessions, firstID int) (*loopStats, error) {
	ls := &loopStats{}
	start := time.Now()
	for ls.attempted < minSessions || time.Since(start) < budget {
		if wl.journal {
			if err := w.advance(); err != nil {
				return nil, fmt.Errorf("advancing the server tree: %w", err)
			}
		}
		s := runSession(wl, w, rec, firstID+ls.attempted, true)
		ls.attempted++
		if s.err != nil {
			ls.failed++
			if ls.firstErr == nil {
				ls.firstErr = s.err
			}
			if wl.journal {
				// The client tree is in an unknown state; later operations
				// would only repeat the failure.
				break
			}
			continue
		}
		ls.walls = append(ls.walls, s.wall.Seconds())
		ls.sessions = append(ls.sessions, s)
	}
	return ls, nil
}

// childEnv marks a process as a child of the harness. The smoke test's
// TestMain looks for it: there the harness's own executable is the test
// binary.
const childEnv = "MSYNC_BENCHMARK_CHILD"

// setUpRepeatedly sets the workload up under workDir — once when minTotal is
// 0, else as often as setup_s needs, minTotal being the seconds the set-ups
// should take together — each time in a child process that has ended before
// the next starts. It returns the last set-up's world with every set-up's
// duration, process start to exit.
func setUpRepeatedly(wl *workload, workDir string, seed int64, scale, minTotal float64) (*world, []float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var dir string
	var secs []float64
	var total float64
	for i := 0; i == 0 || minTotal > 0 && (i < setupRepeats || total < minTotal && i < setupMaxRepeats); i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		dir = filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", wl.name, os.Getpid(), i))
		cmd := exec.Command(self, "--setup-dir", dir, "--workload", wl.name,
			"--seed", strconv.FormatInt(seed, 10), "--scale", strconv.FormatFloat(scale, 'g', -1, 64))
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
	}
	w, err := loadWorld(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return w, secs, nil
}

// endToEndMetrics reduces a loop to the end-to-end metrics.
func endToEndMetrics(ls *loopStats, setupSecs []float64) map[string]float64 {
	n := len(ls.sessions)
	var cpu, c2s, s2c, rts float64
	mallocs := make([]float64, n)
	allocMB := make([]float64, n)
	for i, s := range ls.sessions {
		cpu += s.cpu.Seconds()
		mallocs[i] = float64(s.mallocs)
		allocMB[i] = float64(s.allocBytes) / (1 << 20)
		if i < exactSessions {
			c2s += float64(s.c2s) / exactSessions
			s2c += float64(s.s2c) / exactSessions
			rts += float64(s.client.Roundtrips) / exactSessions
		}
	}
	p50 := median(ls.walls)
	return map[string]float64{
		"setup_s":                median(setupSecs),
		"session_s_p50":          p50,
		"dsl_sync_s":             p50 + s2c/dslDownBps + c2s/dslUpBps + rts*dslRTT,
		"cpu_s_per_session":      cpu / float64(n),
		"wire_bytes_per_session": c2s + s2c,
		"roundtrips_per_session": rts,
		"allocs_per_session":     median(mallocs),
		"alloc_mb_per_session":   median(allocMB),
	}
}
