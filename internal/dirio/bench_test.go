package dirio

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkApplyChanges applies a result shaped like the benchmark's
// src_cold session (180 files of 2–46 KB over 40 directories) and reports
// files/s. The fresh arm writes into a new root per iteration, making every
// directory; the in-place arm replaces the same files in one existing tree,
// as a replica's sync does: each file's mode is read from the file it
// replaces, and each rename frees the old blocks. Each iteration pays every
// fsync and the syncfs of the durable writer, so the figure is the disk's as
// much as the code's.
func BenchmarkApplyChanges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	changed := make(map[string][]byte)
	var total int64
	for i := range 180 {
		data := make([]byte, 2<<10+rng.Intn(44<<10))
		rng.Read(data)
		changed[fmt.Sprintf("src/d%02d/f%03d.c", i%40, i)] = data
		total += int64(len(data))
	}
	run := func(b *testing.B, root func(i int) string, done func(root string)) {
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := root(i)
			if err := ApplyChanges(r, changed, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			done(r)
			b.StartTimer()
		}
		b.ReportMetric(float64(b.N*len(changed))/b.Elapsed().Seconds(), "files/s")
	}
	b.Run("fresh", func(b *testing.B) {
		base := b.TempDir()
		run(b, func(i int) string { return filepath.Join(base, fmt.Sprint(i)) }, func(root string) {
			if err := os.RemoveAll(root); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("in place", func(b *testing.B) {
		root := b.TempDir()
		if err := ApplyChanges(root, changed, nil); err != nil {
			b.Fatal(err)
		}
		run(b, func(int) string { return root }, func(string) {})
	})
}

// BenchmarkOpenTree walks a tree of 20 000 empty files and reports ns/file,
// at one worker and at the default: flat holds them all in one directory,
// where only the stats of that directory can be shared out; nested spreads
// them over 200 directories of 100.
func BenchmarkOpenTree(b *testing.B) {
	const n = 20000
	for _, shape := range []struct {
		name string
		path func(i int) string
	}{
		{"flat", func(i int) string { return fmt.Sprintf("f%05d", i) }},
		{"nested", func(i int) string { return fmt.Sprintf("d%03d/f%05d", i%200, i) }},
	} {
		root := b.TempDir()
		for i := range n {
			p := filepath.Join(root, filepath.FromSlash(shape.path(i)))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		for _, w := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=default", 0}} {
			b.Run(shape.name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					tree, werrs, err := OpenTreeWorkers(root, w.workers)
					if err != nil || len(werrs) != 0 || len(tree.Files()) != n {
						b.Fatal(err, werrs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/file")
			})
		}
	}
}

// BenchmarkTreeReads reads every file of a tree of 600 files of 1 KB, three
// levels deep, in path order: one call a file, each through a fresh cursor
// (Tree.Load, Tree.HashFile), and every file through one cursor, as a
// session's loads and a manifest's hashing do. It reports ns/file.
func BenchmarkTreeReads(b *testing.B) {
	root := b.TempDir()
	data := make([]byte, 1<<10)
	for i := range 600 {
		p := filepath.Join(root, fmt.Sprintf("d%d", i%6), fmt.Sprintf("e%d", i%10), fmt.Sprintf("f%03d.c", i))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	tree, _, err := OpenTree(root)
	if err != nil {
		b.Fatal(err)
	}
	c := tree.Cursor()
	defer c.Close()
	for _, arm := range []struct {
		name string
		read func(rel string) error
	}{
		{"load", func(rel string) error { _, err := tree.Load(rel); return err }},
		{"hash_file", func(rel string) error { _, _, err := tree.HashFile(rel); return err }},
		{"cursor_load", func(rel string) error { _, err := c.Load(rel); return err }},
		{"cursor_hash_file", func(rel string) error { _, _, err := c.HashFile(rel); return err }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, fi := range tree.Files() {
					if err := arm.read(fi.Path); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tree.Files())), "ns/file")
		})
	}
}
