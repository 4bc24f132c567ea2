package dirio

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkApplyChanges applies a result shaped like the benchmark's
// src_cold session (180 files of 2–46 KB over 40 directories) into a fresh
// root per iteration, and reports files/s. Each iteration pays every fsync
// and the syncfs of the durable writer, so the figure is the disk's as much
// as the code's.
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
	base := b.TempDir()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := filepath.Join(base, fmt.Sprint(i))
		if err := ApplyChanges(root, changed, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(root); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*len(changed))/b.Elapsed().Seconds(), "files/s")
}
