package collection

import (
	"math/rand"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/transport"
)

// costTrees is a small collection whose sessions cross the frame-length
// boundaries the accounting has to get right: edited files, deletions, and
// new and rewritten files of incompressible content large enough that the
// verdict frame carrying them needs a longer length varint than its control
// remainder would.
func costTrees() (v1, v2 map[string][]byte) {
	t1, t2 := corpus.GCCProfile(0.06).Generate(17)
	v1, v2 = t1.Map(), t2.Map()
	rng := rand.New(rand.NewSource(18))
	v2["new/blob-a.bin"] = corpus.RandomText(rng, 20_000)
	v2["new/blob-b.bin"] = corpus.RandomText(rng, 3_000)
	v1["rewritten.bin"] = corpus.RandomText(rng, 18_000)
	v2["rewritten.bin"] = corpus.RandomText(rng, 18_000)
	return v1, v2
}

// TestCostsTotalEqualsWireBytes: Costs.Total() on both sides is exactly the
// number of bytes that crossed the connection, in every session shape. One
// byte went missing per session whenever a verdict frame's split attribution
// (control / full / delta) took the framing of the control share instead of
// the frame's.
func TestCostsTotalEqualsWireBytes(t *testing.T) {
	v1, v2 := costTrees()
	shapes := []struct {
		name string
		tune func(*Server, *Client)
	}{
		{"lockstep", func(*Server, *Client) {}},
		{"mux", func(s *Server, c *Client) { s.MuxStreams, c.MuxStreams = 16, 16 }},
		{"tree", func(_ *Server, c *Client) {
			c.TreeManifest, c.SpeculativeDescent, c.CrossFileMatch = true, true, true
		}},
		{"tree+mux", func(s *Server, c *Client) {
			c.TreeManifest, c.SpeculativeDescent, c.CrossFileMatch = true, true, true
			s.MuxStreams, c.MuxStreams = 16, 16
		}},
		{"cdc", func(_ *Server, c *Client) { c.MapMode = core.MapCDC }},
		{"journal", nil}, // store-backed server, see below
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			var srv *Server
			cli := NewClient(v1)
			if sh.tune == nil {
				srv = versionedServer(t, v1, v2, core.DefaultConfig())
				cli.AnnounceVersion, cli.BaseVersion = true, 1
			} else {
				var err error
				if srv, err = NewServer(v2, core.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				sh.tune(srv, cli)
			}

			a, b := transport.Pipe()
			rec := &recordConn{rw: b}
			var wg sync.WaitGroup
			wg.Add(1)
			var serverTotal int64
			var serverErr error
			go func() {
				defer wg.Done()
				defer a.Close()
				costs, err := srv.Serve(a)
				if serverErr = err; err == nil {
					serverTotal = costs.Total()
				}
			}()
			res, err := cli.Sync(rec)
			b.Close()
			wg.Wait()
			if err != nil || serverErr != nil {
				t.Fatalf("client: %v, server: %v", err, serverErr)
			}
			if err := VerifyAgainst(res.Files, v2); err != nil {
				t.Fatal(err)
			}
			if sh.name == "journal" && res.Costs.FilesJournal == 0 {
				t.Fatal("the journal shape did not take the journal path")
			}
			wire := int64(rec.c2s.Len() + rec.s2c.Len())
			if got := res.Costs.Total(); got != wire {
				t.Errorf("client Costs.Total() = %d, the connection carried %d", got, wire)
			}
			if serverTotal != wire {
				t.Errorf("server Costs.Total() = %d, the connection carried %d", serverTotal, wire)
			}
		})
	}
}
