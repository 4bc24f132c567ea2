package collection

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"msync/internal/core"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/sigcache"
)

// manifestDelta opens dir as a fresh TreeSource (as a new process run would),
// builds its manifest, and returns it with the cache-stat delta and the bytes
// this source streamed through MD4.
func manifestDelta(t *testing.T, dir string, cache *sigcache.Cache, fp uint64, paranoid bool) ([]ManifestEntry, sigcache.Stats, int64) {
	t.Helper()
	tree, werrs, err := dirio.OpenTree(dir)
	if err != nil || len(werrs) > 0 {
		t.Fatalf("OpenTree: %v %v", err, werrs)
	}
	src := NewTreeSource(tree, cache, fp, paranoid)
	before := cache.Stats()
	m, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return m, cache.Stats().Sub(before), src.bytesHashed.Load()
}

// TestCacheInvalidationMatrix pins down exactly which stat changes invalidate
// a cached signature: mtime alone, size alone, and a config-fingerprint
// change each force a miss; a content change that restores both size and
// mtime is caught by the ctime-widened key where the platform reports one,
// and remains the documented stale-hit limitation (paranoid mode as the
// backstop) where it doesn't.
func TestCacheInvalidationMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	setFile := func(content string, mtime time.Time) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	later := base.Add(time.Second)
	v1 := "file contents, version one"

	cfg := core.DefaultConfig()
	fp := ConfigFingerprint(&cfg)
	cache := sigcache.New(sigcache.Options{})

	// Cold: the first manifest streams the file and stores its signature.
	setFile(v1, base)
	m, d, hashed := manifestDelta(t, dir, cache, fp, false)
	if d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("cold: %+v, want a pure miss", d)
	}
	if hashed != int64(len(v1)) || m[0].Sum != md4.Sum([]byte(v1)) {
		t.Fatal("cold: wrong bytes hashed or wrong sum")
	}

	// Unchanged: stat identity answers; nothing is hashed.
	m, d, hashed = manifestDelta(t, dir, cache, fp, false)
	if d.Hits != 1 || d.Misses != 0 || hashed != 0 {
		t.Fatalf("unchanged: %+v hashed=%d, want a free hit", d, hashed)
	}
	if m[0].Sum != md4.Sum([]byte(v1)) {
		t.Fatal("unchanged: sum drifted")
	}

	// Nanosecond-only mtime change, identical content: the cache keys on
	// Unix nanoseconds, so even a same-second rewrite (common on filesystems
	// with sub-second timestamps) is a miss, never a stale hit.
	setFile(v1, base.Add(time.Nanosecond))
	_, d, hashed = manifestDelta(t, dir, cache, fp, false)
	if d.Misses != 1 || d.Hits != 0 || hashed != int64(len(v1)) {
		t.Fatalf("mtime-nanosecond: %+v hashed=%d, want a recomputing miss", d, hashed)
	}

	// mtime-only change, identical content: the key no longer matches, so
	// the file is re-hashed (to the same sum).
	setFile(v1, later)
	m, d, hashed = manifestDelta(t, dir, cache, fp, false)
	if d.Misses != 1 || d.Hits != 0 || hashed != int64(len(v1)) {
		t.Fatalf("mtime-only: %+v hashed=%d, want a recomputing miss", d, hashed)
	}
	if m[0].Sum != md4.Sum([]byte(v1)) {
		t.Fatal("mtime-only: content did not change, sum must not either")
	}

	// Size-only change (mtime held at the cached value): still a miss.
	v2 := v1 + "!"
	setFile(v2, later)
	m, d, _ = manifestDelta(t, dir, cache, fp, false)
	if d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("size-only: %+v, want a miss", d)
	}
	if m[0].Sum != md4.Sum([]byte(v2)) {
		t.Fatal("size-only: sum not refreshed")
	}

	// Content change with size AND mtime restored. Where the platform
	// reports a stat ctime the rewrite still moved it — userspace cannot put
	// it back — so the widened key catches what size+mtime alone missed.
	// Platforms without ctime keep the documented stale hit, with paranoid
	// mode as the backstop.
	v3 := v2[:len(v2)-1] + "?" // same length, different content
	setFile(v3, later)
	tree, _, err := dirio.OpenTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctimeAware := tree.Files()[0].CTime != 0
	m, d, hashed = manifestDelta(t, dir, cache, fp, false)
	if ctimeAware {
		if d.Misses != 1 || d.Hits != 0 || hashed != int64(len(v3)) {
			t.Fatalf("restored-mtime: %+v hashed=%d, want a ctime-keyed miss", d, hashed)
		}
		if m[0].Sum != md4.Sum([]byte(v3)) {
			t.Fatal("restored-mtime: sum not refreshed after ctime-keyed miss")
		}
	} else {
		if d.Hits != 1 || d.Misses != 0 || hashed != 0 {
			t.Fatalf("restored-mtime: %+v hashed=%d, want the (stale) hit", d, hashed)
		}
		if m[0].Sum != md4.Sum([]byte(v2)) || m[0].Sum == md4.Sum([]byte(v3)) {
			t.Fatal("restored-mtime: expected the stale cached sum")
		}
	}

	// Paranoid mode streams the file on every hit. With a ctime-aware key
	// the entry is already fresh, so the verify stream confirms it; without
	// one this is where the stale entry is rejected, recomputed and replaced.
	m, d, hashed = manifestDelta(t, dir, cache, fp, true)
	if ctimeAware {
		if d.Hits != 1 || d.Misses != 0 {
			t.Fatalf("paranoid: %+v, want a verified hit", d)
		}
		if hashed != int64(len(v3)) { // one verify stream, no recompute
			t.Fatalf("paranoid: hashed %d bytes, want %d", hashed, len(v3))
		}
	} else {
		if d.Misses != 1 || d.Hits != 0 {
			t.Fatalf("paranoid: %+v, want the stale entry rejected", d)
		}
		if hashed != 2*int64(len(v3)) { // one verify stream + one recompute
			t.Fatalf("paranoid: hashed %d bytes, want %d", hashed, 2*len(v3))
		}
	}
	if m[0].Sum != md4.Sum([]byte(v3)) {
		t.Fatal("paranoid: sum not corrected")
	}

	// The corrected entry now serves plain lookups.
	m, d, _ = manifestDelta(t, dir, cache, fp, false)
	if d.Hits != 1 || m[0].Sum != md4.Sum([]byte(v3)) {
		t.Fatalf("post-paranoid: %+v, want a correct hit", d)
	}

	// A config-fingerprint change invalidates everything, file untouched.
	_, d, _ = manifestDelta(t, dir, cache, fp+1, false)
	if d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("fingerprint: %+v, want a miss", d)
	}
}

// TestConfigFingerprint: protocol-affecting fields move the fingerprint,
// Workers (pure local parallelism) does not.
func TestConfigFingerprint(t *testing.T) {
	cfg := core.DefaultConfig()
	fp := ConfigFingerprint(&cfg)

	same := core.DefaultConfig()
	if ConfigFingerprint(&same) != fp {
		t.Fatal("identical configs fingerprint differently")
	}

	workers := core.DefaultConfig()
	workers.Workers = 17
	if ConfigFingerprint(&workers) != fp {
		t.Fatal("Workers must not disturb the cache key: it cannot change hash values")
	}

	blocks := core.DefaultConfig()
	blocks.MinBlockSize *= 2
	if ConfigFingerprint(&blocks) == fp {
		t.Fatal("block-schedule change kept the fingerprint")
	}
}
