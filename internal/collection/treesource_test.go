package collection

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"msync/internal/dirio"
	"msync/internal/pool"
	"msync/internal/sigcache"
)

// writeFiles writes n distinct files of size bytes each, spread over 16
// directories, and returns the root.
func writeFiles(tb testing.TB, n, size int) string {
	tb.Helper()
	root := tb.TempDir()
	buf := make([]byte, size)
	for i := range n {
		path := filepath.Join(root, fmt.Sprintf("d%02d", i%16), fmt.Sprintf("f%04d.txt", i))
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return root
}

// openTree walks root on the given worker budget, failing on any error.
func openTree(tb testing.TB, root string, workers int) *dirio.Tree {
	tb.Helper()
	tree, werrs, err := dirio.OpenTreeWorkers(root, workers)
	if err != nil || len(werrs) != 0 {
		tb.Fatal(err, werrs)
	}
	return tree
}

// loadTree reads every file of the tree under root, keyed by its path.
func loadTree(tb testing.TB, root string) map[string][]byte {
	tb.Helper()
	tree := openTree(tb, root, 0)
	files := make(map[string][]byte, len(tree.Files()))
	for _, fi := range tree.Files() {
		data, err := tree.Load(fi.Path)
		if err != nil {
			tb.Fatal(err)
		}
		files[fi.Path] = data
	}
	return files
}

// sourceOf is files as a receiver's source: a MapSource, or with onDisk a
// TreeSource over a directory holding them, whose result lists the files it
// keeps by name.
func sourceOf(tb testing.TB, files map[string][]byte, onDisk bool) Source {
	tb.Helper()
	if !onDisk {
		return MapSource(files)
	}
	root := tb.TempDir()
	if err := dirio.ApplyChanges(root, files, nil); err != nil {
		tb.Fatal(err)
	}
	return NewTreeSource(openTree(tb, root, 0), nil, 0, false)
}

// TestManifestSameAtEveryParallelism: the manifest fans out over the tree's
// workers, each file into its own slot, so it equals the eager manifest of
// the same files however many workers hashed it. When hashes fail, the error
// names the first failing file in path order, as a serial loop would.
func TestManifestSameAtEveryParallelism(t *testing.T) {
	root := writeFiles(t, 300, 700)
	if err := os.Symlink(filepath.Join(root, "d00", "f0000.txt"), filepath.Join(root, "link.txt")); err != nil {
		t.Fatal(err)
	}
	want := BuildManifest(loadTree(t, root))
	defer pool.SetParallelism(0)
	parallelisms := []int{1, 2, 8}
	var trees []*dirio.Tree
	for _, p := range parallelisms {
		pool.SetParallelism(p)
		got, err := NewTreeSource(openTree(t, root, 0), nil, 0, false).Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parallelism %d: the manifest differs from the eager one", p)
		}
		trees = append(trees, openTree(t, root, 0))
	}

	// With a signature cache the workers share it: a cold pass fills it and a
	// paranoid warm pass re-hashes every hit, both with the eager manifest.
	cache := sigcache.New(sigcache.Options{Dir: t.TempDir()})
	for _, p := range []int{8, 8, 2} {
		pool.SetParallelism(p)
		got, err := NewTreeSource(openTree(t, root, 0), cache, 0, true).Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parallelism %d, cached: the manifest differs from the eager one", p)
		}
	}
	if st := cache.Stats(); st.Misses != int64(len(want)) || st.Hits != 2*int64(len(want)) {
		t.Fatalf("cache stats %+v, want %d misses then every lookup a hit", st, len(want))
	}

	// Files gone between the walk and the hash, in three different chunks.
	gone := []string{"d14/f0270.txt", "d03/f0099.txt", "d07/f0183.txt"}
	for _, rel := range gone {
		if err := os.Remove(filepath.Join(root, filepath.FromSlash(rel))); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range parallelisms {
		pool.SetParallelism(p)
		_, err := NewTreeSource(trees[i], nil, 0, false).Manifest()
		var fe *dirio.FileError
		if !errors.As(err, &fe) || fe.Path != "d03/f0099.txt" || !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("parallelism %d: err = %v, want the first missing file in path order", p, err)
		}
	}
}

// TestOpenTreeManifestAllocsPerFile bounds what the walk and the manifest
// allocate per file of a 1 000-file tree without a cache: 1.3 allocations
// through directory descriptors, where os.ReadDir, DirEntry.Info and
// full-path opens made 8.3, and the walk before the names-then-stat rewrite
// and the os.File hash 12.3.
func TestOpenTreeManifestAllocsPerFile(t *testing.T) {
	const n = 1000
	root := writeFiles(t, n, 1024)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewTreeSource(openTree(t, root, 0), nil, 0, false).Manifest(); err != nil {
			t.Fatal(err)
		}
	})
	if perFile := allocs / n; perFile > 2 {
		t.Errorf("OpenTree + Manifest make %.2f allocations a file, ceiling 2", perFile)
	}
}

// BenchmarkOpenTreeManifest is the per-file cost of fingerprinting a tree of
// 3 000 files of 1 KB: the walk, the stats and the hashes, serial and on the
// host's workers.
func BenchmarkOpenTreeManifest(b *testing.B) {
	const n = 3000
	root := writeFiles(b, n, 1024)
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := NewTreeSource(openTree(b, root, w.workers), nil, 0, false).Manifest(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/file")
		})
	}
}
