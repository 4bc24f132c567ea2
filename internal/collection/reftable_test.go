package collection

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"msync/internal/core"
	"msync/internal/stats"
)

// churnTrees is a collection of n small text files and its next version, in
// which every hundredth file has grown by a line: the shape of the
// benchmark's journal_live step (1 % churn), at any size.
func churnTrees(n int) (v1, v2 map[string][]byte) {
	v1, v2 = make(map[string][]byte, n), make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("src/d%03d/file%05d.txt", i/100, i)
		data := []byte(strings.Repeat(fmt.Sprintf("line of file %d\n", i), 20+i%40))
		v1[path], v2[path] = data, data
		if i%100 == 0 {
			v2[path] = append(append([]byte{}, data...), "one more line\n"...)
		}
	}
	return v1, v2
}

// TestAnnounceByReferenceTable prints EXPERIMENTS.md's "Announce by
// reference" table — what an announcing session puts on the wire, and what
// that costs on the paper's DSL link, when it hits, when a versioned server
// misses and when the server has no store — and holds the hit to what the
// table is there to show: its client half does not grow with the collection.
// (The parent's rows are this test run in a checkout of the parent commit.)
func TestAnnounceByReferenceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-file collection")
	}
	dsl := stats.LinkModel{DownBps: 125_000, UpBps: 32_000, RTT: 80 * time.Millisecond}
	t.Logf("%6s  %-22s %9s %9s %3s %8s", "files", "session", "c2s B", "s2c B", "rt", "DSL s")
	for _, files := range []int{200, 2026, 20000} {
		v1, v2 := churnTrees(files)
		plain, err := NewServer(v2, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		versioned := versionedServer(t, v1, v2, core.DefaultConfig())
		for _, row := range []struct {
			name string
			srv  *Server
			base uint64
		}{
			{"hit", versioned, 1},
			{"miss, unknown version", versioned, 99},
			{"miss, no store", plain, 1},
		} {
			cli := NewClient(v1)
			cli.AnnounceVersion, cli.BaseVersion = true, row.base
			res, _ := runVersioned(t, row.srv, cli)
			if err := VerifyAgainst(res.Files, v2); err != nil {
				t.Fatal(err)
			}
			c := res.Costs
			t.Logf("%6d  %-22s %9d %9d %3d %8.3f", files, row.name,
				c.DirTotal(stats.C2S), c.DirTotal(stats.S2C), c.Roundtrips, dsl.Duration(c).Seconds())
			if row.name == "hit" && (c.DirTotal(stats.C2S) > 96 || c.Roundtrips != 2) {
				t.Errorf("a hit over %d files sends %d bytes up in %d roundtrips, want at most 96 in 2",
					files, c.DirTotal(stats.C2S), c.Roundtrips)
			}
		}
	}
}
