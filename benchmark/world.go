package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"msync/internal/md4"
)

// fileSum is what the oracle knows about one file: its length and MD4.
type fileSum struct {
	N   int
	Sum [md4.Size]byte
}

func sumOf(data []byte) fileSum { return fileSum{len(data), md4.Sum(data)} }

// world is one set-up of a workload on disk: the server's current tree, the
// client's outdated tree, and — in memory — the content sums of both, which
// are the oracle every session is checked against.
type world struct {
	dir        string // everything below lives here
	serverRoot string
	clientRoot string
	server     map[string]fileSum
	client     map[string]fileSum
	fp         *fingerprint // while set-up generates
	corpus     string       // the finished fingerprint, as corpus.lock pins it

	// linkUnchanged makes a file that is identical on both ends one inode
	// with two names. Creating a file is the slowest and least steady thing
	// set-up does (0.1–0.3 ms each on the reference host, a link 7 µs), and
	// neither tree is written after set-up: results are applied to a scratch
	// root. journal_live, whose trees are both rewritten in place, must not
	// share inodes.
	linkUnchanged bool

	seed int64
	// src_warm: what the cache-filling session of set-up cost.
	coldFill        time.Duration
	coldFillMallocs uint64
	// journal_live: the store version the client holds, the server tree's
	// sorted paths, and how many churn steps have been applied.
	version uint64
	paths   []string
	step    int

	madeDirs map[string]bool
	scratchN int
}

func newWorld(dir string, linkUnchanged bool) (*world, error) {
	w := &world{
		dir:           dir,
		linkUnchanged: linkUnchanged,
		serverRoot:    filepath.Join(dir, "server"),
		clientRoot:    filepath.Join(dir, "client"),
		server:        make(map[string]fileSum),
		client:        make(map[string]fileSum),
		fp:            newFingerprint(),
		madeDirs:      make(map[string]bool),
	}
	for _, d := range []string{w.serverRoot, w.clientRoot} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// sub names a directory of this world's own (cache, store, scratch).
func (w *world) sub(name string) string { return filepath.Join(w.dir, name) }

// place returns rel's path under root, making its directory on first use.
func (w *world) place(root, rel string) (string, error) {
	path := filepath.Join(root, filepath.FromSlash(rel))
	if dir := filepath.Dir(path); !w.madeDirs[dir] {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		w.madeDirs[dir] = true
	}
	return path, nil
}

func (w *world) writeFile(root, rel string, data []byte) error {
	path, err := w.place(root, rel)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// emit is the emitFunc of set-up: v1 goes to the client tree, v2 to the
// server tree, and both into the oracle's sums and the corpus fingerprint.
func (w *world) emit(path string, v1, v2 []byte) error {
	var s1, s2 fileSum
	if v1 != nil {
		s1 = sumOf(v1)
		w.client[path] = s1
		if err := w.writeFile(w.clientRoot, path, v1); err != nil {
			return err
		}
	}
	switch {
	case v2 == nil:
	case sameSlice(v1, v2):
		s2 = s1
		w.server[path] = s2
		if !w.linkUnchanged {
			if err := w.writeFile(w.serverRoot, path, v2); err != nil {
				return err
			}
			break
		}
		to, err := w.place(w.serverRoot, path)
		if err != nil {
			return err
		}
		if err := os.Link(filepath.Join(w.clientRoot, filepath.FromSlash(path)), to); err != nil {
			return err
		}
	default:
		s2 = sumOf(v2)
		w.server[path] = s2
		if err := w.writeFile(w.serverRoot, path, v2); err != nil {
			return err
		}
	}
	w.fp.add(path, v1, v2, s1.Sum, s2.Sum)
	return nil
}

// sameSlice reports whether a and b are the same non-empty slice, which is
// how generators hand over an unchanged file.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// emitServer is the emitFunc of a journal_live churn step: only the server
// tree moves; the client catches up by syncing.
func (w *world) emitServer(path string, _, v2 []byte) error {
	if v2 == nil {
		delete(w.server, path)
		return os.Remove(filepath.Join(w.serverRoot, filepath.FromSlash(path)))
	}
	w.server[path] = sumOf(v2)
	return w.writeFile(w.serverRoot, path, v2)
}

func (w *world) loadServer(path string) ([]byte, error) {
	return os.ReadFile(filepath.Join(w.serverRoot, filepath.FromSlash(path)))
}

// scratch returns a fresh, not yet existing directory for one Apply.
func (w *world) scratch() string {
	w.scratchN++
	return w.sub(fmt.Sprintf("scratch-%d", w.scratchN))
}

func (w *world) serverPaths() []string {
	paths := make([]string, 0, len(w.server))
	for p := range w.server {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func (w *world) serverBytes() int64 {
	var n int64
	for _, s := range w.server {
		n += int64(s.N)
	}
	return n
}

func (w *world) remove() error { return os.RemoveAll(w.dir) }

// worldState is what a set-up hands to the process that measures: set-up runs
// in a child process of its own, so that neither its memory high-water mark
// (the store's first snapshot holds the whole tree) nor its garbage is the
// measuring process's.
type worldState struct {
	Corpus          string
	Seed            int64
	Server, Client  map[string]fileSum
	ColdFill        time.Duration
	ColdFillMallocs uint64
	Version         uint64
}

func (w *world) statePath() string { return w.sub("state.gob") }

// save writes the state file, the last thing a set-up does.
func (w *world) save() error {
	f, err := os.Create(w.statePath())
	if err != nil {
		return err
	}
	err = gob.NewEncoder(f).Encode(worldState{w.corpus, w.seed, w.server, w.client, w.coldFill, w.coldFillMallocs, w.version})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadWorld reads back the world a set-up left under dir.
func loadWorld(dir string) (*world, error) {
	w, err := newWorld(dir, false)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(w.statePath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st worldState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("%s: %w", w.statePath(), err)
	}
	w.corpus, w.seed, w.server, w.client = st.Corpus, st.Seed, st.Server, st.Client
	w.coldFill, w.coldFillMallocs, w.version = st.ColdFill, st.ColdFillMallocs, st.Version
	w.fp = nil
	w.paths = w.serverPaths()
	return w, nil
}
