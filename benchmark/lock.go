package main

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strings"

	"msync/internal/md4"
)

// corpus.lock pins, for seeds 42 and 7 at scale 1, the fingerprint of every
// workload's corpus: one line "workload seed fingerprint". A run on a pinned
// seed refuses to report when its corpus differs, so a change to a generator
// here or to a primitive in internal/corpus cannot pass for a change in
// msync's speed. -update-lock rewrites the file when the change is meant.
//
//go:embed corpus.lock
var corpusLock string

// lockFile is where -update-lock, run from the repository root, writes what
// the directive above embeds.
const lockFile = "benchmark/corpus.lock"

var lockedSeeds = []int64{42, 7}

// checkLock compares a set-up's fingerprint with the pinned one, if any.
func checkLock(lock, workload string, seed int64, got string) error {
	key := fmt.Sprintf("%s %d ", workload, seed)
	for _, line := range strings.Split(lock, "\n") {
		if want, ok := strings.CutPrefix(line, key); ok && want != got {
			return fmt.Errorf("corpus drift on %s seed %d: corpus.lock pins\n  %s\nthis run generated\n  %s\nrun with -update-lock if the generator change is deliberate",
				workload, seed, want, got)
		}
	}
	return nil
}

// corpusFingerprint generates a workload's corpus at scale 1 without writing
// it and returns its fingerprint, the same value a set-up computes.
func corpusFingerprint(wl *workload, seed int64) (string, error) {
	fp := newFingerprint()
	record := func(path string, v1, v2 []byte) error {
		fp.add(path, v1, v2, md4.Sum(v1), md4.Sum(v2))
		return nil
	}
	if !wl.journal {
		if err := wl.gen(seed, 1, record); err != nil {
			return "", err
		}
		return fp.String(), nil
	}
	// journal_live pins version 1 and the first churn step, which reads the
	// files it edits back.
	held := make(map[string][]byte)
	var paths []string
	hold := func(path string, v1, v2 []byte) error {
		held[path] = v2
		paths = append(paths, path)
		return record(path, v1, v2)
	}
	if err := wl.gen(seed, 1, hold); err != nil {
		return "", err
	}
	sort.Strings(paths)
	load := func(p string) ([]byte, error) { return held[p], nil }
	if _, err := journalChurn(seed, 1, paths, load, record); err != nil {
		return "", err
	}
	return fp.String(), nil
}

// updateLock regenerates every pinned fingerprint and writes the lock file.
func updateLock() error {
	var b strings.Builder
	for i := range workloads {
		for _, seed := range lockedSeeds {
			fp, err := corpusFingerprint(&workloads[i], seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s %d %s\n", workloads[i].name, seed, fp)
		}
	}
	return os.WriteFile(lockFile, []byte(b.String()), 0o644)
}
