package pubsig

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"msync/internal/dirio"
)

// ArtifactStore holds published artifacts: write-once blobs under
// slash-separated keys. Artifacts are immutable by contract — putting the
// same key twice with identical bytes is a no-op (publish is idempotent and
// content-addressed blobs dedupe across versions), putting different bytes
// is a conflict and fails. Implementations must be safe for concurrent use:
// a Publisher writes while HTTP handlers read.
type ArtifactStore interface {
	// Put stores an immutable artifact under key.
	Put(key string, data []byte) error
	// Get returns the artifact bytes, or ErrNoArtifact when absent. The
	// returned slice must not be mutated by callers.
	Get(key string) ([]byte, error)
	// Keys returns every stored key with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
}

// ErrNoArtifact reports a Get for a key that was never published (or whose
// backing file vanished).
var ErrNoArtifact = errors.New("pubsig: no such artifact")

// ErrArtifactConflict reports a Put that would overwrite an existing
// artifact with different bytes — a broken publisher or a corrupted store,
// never a legal state transition.
var ErrArtifactConflict = errors.New("pubsig: artifact exists with different content")

// checkKey rejects keys that could escape a filesystem store root or that
// would round-trip differently through a URL. Keys are the same namespace
// the HTTP surface exposes, so the rules are strict.
func checkKey(key string) error {
	if key == "" || strings.HasPrefix(key, "/") || strings.HasSuffix(key, "/") {
		return fmt.Errorf("pubsig: bad artifact key %q", key)
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("pubsig: bad artifact key %q", key)
		}
		if strings.ContainsAny(seg, "\\\x00") {
			return fmt.Errorf("pubsig: bad artifact key %q", key)
		}
	}
	return nil
}

// MemStore is an in-memory ArtifactStore, for tests, benchmarks, and
// ephemeral publishers fronting a CDN that is the real storage tier.
type MemStore struct {
	mu   sync.RWMutex
	blob map[string][]byte
}

// NewMemStore returns an empty in-memory artifact store.
func NewMemStore() *MemStore {
	return &MemStore{blob: make(map[string][]byte)}
}

// Put implements ArtifactStore.
func (m *MemStore) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.blob[key]; ok {
		if string(old) == string(data) {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrArtifactConflict, key)
	}
	m.blob[key] = append([]byte(nil), data...)
	return nil
}

// Get implements ArtifactStore.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.blob[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoArtifact, key)
	}
	return data, nil
}

// Keys implements ArtifactStore.
func (m *MemStore) Keys(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.blob))
	for k := range m.blob {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// DirStore is a filesystem ArtifactStore: each key is a file under the
// root directory, written durably by dirio.ReplaceFile and a directory
// fsync, so a crashed publish never leaves a torn artifact and two replicas
// pointed at the same directory serve identical bytes. Because artifacts
// are immutable and content- or version-addressed, the directory can be
// rsynced, served by any static file server, or pushed to object storage
// as-is.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a filesystem artifact store rooted
// at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pubsig: artifact dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (d *DirStore) path(key string) string {
	return filepath.Join(d.dir, filepath.FromSlash(key))
}

// Put implements ArtifactStore.
func (d *DirStore) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	path := d.path(key)
	if old, err := os.ReadFile(path); err == nil {
		if string(old) == string(data) {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrArtifactConflict, key)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("pubsig: artifact mkdir: %w", err)
	}
	if err := cmp.Or(dirio.ReplaceFile(path, data), dirio.SyncDir(filepath.Dir(path))); err != nil {
		return fmt.Errorf("pubsig: artifact write: %w", err)
	}
	return nil
}

// Get implements ArtifactStore.
func (d *DirStore) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoArtifact, key)
	}
	if err != nil {
		return nil, fmt.Errorf("pubsig: artifact read: %w", err)
	}
	return data, nil
}

// Keys implements ArtifactStore.
func (d *DirStore) Keys(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		// An orphaned temp file from a crashed publish; ".pub-" named them
		// before dirio wrote artifacts.
		if strings.HasPrefix(e.Name(), dirio.TempPrefix) || strings.HasPrefix(e.Name(), ".pub-") {
			return nil
		}
		rel, err := filepath.Rel(d.dir, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pubsig: artifact walk: %w", err)
	}
	sort.Strings(out)
	return out, nil
}
