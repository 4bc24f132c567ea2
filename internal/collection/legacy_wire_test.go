package collection

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/transport"
)

// -update regenerates the recorded legacy wire streams in testdata/. Only do
// this for an intentional, documented protocol change: the goldens are the
// compatibility contract that sessions without hello extensions stay
// byte-identical across versions (PROTOCOL.md "Hello extensions").
var updateGoldens = flag.Bool("update", false, "rewrite recorded wire streams in testdata/")

// recordConn wraps the client end of a pipe and captures both directions of
// the session: everything the client writes (c2s) and reads (s2c).
type recordConn struct {
	rw       io.ReadWriter
	c2s, s2c bytes.Buffer
}

func (r *recordConn) Read(p []byte) (int, error) {
	n, err := r.rw.Read(p)
	r.s2c.Write(p[:n])
	return n, err
}

func (r *recordConn) Write(p []byte) (int, error) {
	n, err := r.rw.Write(p)
	r.c2s.Write(p[:n])
	return n, err
}

// encodeStreams serializes the two directions as length-prefixed blobs.
func encodeStreams(c2s, s2c []byte) []byte {
	var out bytes.Buffer
	for _, b := range [][]byte{c2s, s2c} {
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(b)))
		out.Write(hdr[:])
		out.Write(b)
	}
	return out.Bytes()
}

// legacyScenario runs one client/server session pair over a pipe with the
// client end recorded and returns the serialized transcript.
type legacyScenario struct {
	name string
	run  func(t *testing.T) (c2s, s2c []byte)
}

// runRecorded drives client against server over a recorded pipe.
func runRecorded(t *testing.T, srv *Server, cli *Client) (c2s, s2c []byte) {
	t.Helper()
	a, b := transport.Pipe()
	rec := &recordConn{rw: b}
	var wg sync.WaitGroup
	var serverErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, serverErr = srv.Serve(a)
	}()
	_, err := cli.Sync(rec)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	return rec.c2s.Bytes(), rec.s2c.Bytes()
}

func legacyScenarios() []legacyScenario {
	return []legacyScenario{
		{name: "manifest_pull", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runRecorded(t, srv, NewClient(v1.Map()))
		}},
		{name: "tree_pull", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := corpus.GCCProfile(0.05).Generate(9)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.TreeManifest = true
			return runRecorded(t, srv, cli)
		}},
		{name: "push", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
			pusher, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			receiver, err := NewServer(v1.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			receiver.AllowPush = true
			a, b := transport.Pipe()
			rec := &recordConn{rw: b}
			var wg sync.WaitGroup
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer a.Close()
				_, srvErr = receiver.Serve(a)
			}()
			_, err = pusher.Push(rec)
			b.Close()
			wg.Wait()
			if err != nil {
				t.Fatalf("pusher: %v", err)
			}
			if srvErr != nil {
				t.Fatalf("receiver: %v", srvErr)
			}
			return rec.c2s.Bytes(), rec.s2c.Bytes()
		}},
		{name: "tree_pull_spec", run: func(t *testing.T) ([]byte, []byte) {
			// Tree pull with the tree-extension hello (speculative descent):
			// TREE_ACK plus multi-level answers, pinned so the negotiated
			// exchange cannot drift silently.
			v1, v2 := corpus.GCCProfile(0.05).Generate(9)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.TreeManifest = true
			cli.SpeculativeDescent = true
			return runRecorded(t, srv, cli)
		}},
		{name: "tree_pull_cross", run: func(t *testing.T) ([]byte, []byte) {
			// Tree pull with cross-file matching: a pure rename leaves the
			// WANT, an alternate-basis hint tags a moved-and-edited file.
			v1, _ := corpus.GCCProfile(0.0).Generate(17)
			serverFiles := map[string][]byte{}
			clientFiles := v1.Map()
			paths := make([]string, 0, len(clientFiles))
			for p := range clientFiles {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for i, p := range paths {
				data := clientFiles[p]
				switch i % 7 {
				case 0:
					serverFiles["moved/"+p] = data // pure rename
				case 1:
					edited := append(append([]byte{}, data...), []byte(" // moved and edited")...)
					serverFiles["edited/"+p] = edited
				default:
					serverFiles[p] = data
				}
			}
			srv, err := NewServer(serverFiles, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(clientFiles)
			cli.TreeManifest = true
			cli.CrossFileMatch = true
			return runRecorded(t, srv, cli)
		}},
		{name: "announce_unversioned", run: func(t *testing.T) ([]byte, []byte) {
			// The version-announcement extension against a server without a
			// store: the extension rides in the hello and is ignored.
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.AnnounceVersion = true
			cli.BaseVersion = 3
			return runRecorded(t, srv, cli)
		}},
		// The shapes below negotiate an extension that changes the per-file
		// phases; they pin what the benchmark's tiny_tree, big_cdc and
		// journal_live workloads put on the wire.
		{name: "mux_manifest_pull", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = 4
			cli := NewClient(v1.Map())
			cli.MuxStreams = 4
			return runRecorded(t, srv, cli)
		}},
		{name: "mux_tree_pull", run: func(t *testing.T) ([]byte, []byte) {
			// The tiny_tree option set: merkle manifest, speculative descent,
			// cross-file matching and 16 streams in one session.
			clientFiles, serverFiles := movedTrees(tinyTrees(48))
			srv, err := NewServer(serverFiles, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = 16
			cli := NewClient(clientFiles)
			cli.TreeManifest = true
			cli.SpeculativeDescent = true
			cli.CrossFileMatch = true
			cli.MuxStreams = 16
			return runRecorded(t, srv, cli)
		}},
		{name: "fallback_pull", run: func(t *testing.T) ([]byte, []byte) {
			// Hashes weak enough that false matches survive verification:
			// the ACK lists the files whose whole-file check failed and a
			// FULL frame re-sends them.
			v1, v2 := tinyTrees(12)
			srv, err := NewServer(v2, weakConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runRecorded(t, srv, NewClient(v1))
		}},
		{name: "mux_fallback_pull", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := tinyTrees(12)
			srv, err := NewServer(v2, weakConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = 4
			cli := NewClient(v1)
			cli.MuxStreams = 4
			return runRecorded(t, srv, cli)
		}},
		{name: "cdc_pull", run: func(t *testing.T) ([]byte, []byte) {
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.MapMode = core.MapCDC
			return runRecorded(t, srv, cli)
		}},
		{name: "journal_pull", run: func(t *testing.T) ([]byte, []byte) {
			// Store-backed server, announced base version, journal hit: no
			// engines, verdicts carry the deltas, empty DELTA and ACK follow.
			v1, v2 := costTrees()
			srv := versionedServer(t, v1, v2, core.DefaultConfig())
			cli := NewClient(v1)
			cli.AnnounceVersion = true
			cli.BaseVersion = 1
			return runRecorded(t, srv, cli)
		}},
	}
}

// weakConfig is a legal configuration whose 4-bit block hashes and 6-bit
// verification hashes let false matches through on about half of
// tinyTrees' files, so their whole-file checks fail and the session has to
// fall back to full transfers (tinyTrees(12): 6 of 12 files).
func weakConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MinHashBits, cfg.MaxHashBits = 4, 4
	cfg.VerifyBits = 6
	cfg.ContBits = 1
	cfg.SlackBits = 0
	return cfg
}

// movedTrees turns a third of an edited tree pair into cross-file work: of
// every seven paths (sorted) the server holds one under a new name unchanged
// (pure rename), one under a new name with its edit (moved and edited) and one
// unchanged in place; the rest keep their in-place edits.
func movedTrees(v1, v2 map[string][]byte) (clientFiles, serverFiles map[string][]byte) {
	paths := make([]string, 0, len(v1))
	for p := range v1 {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for i, p := range paths {
		switch i % 7 {
		case 0:
			delete(v2, p)
			v2["moved/"+p] = v1[p]
		case 1:
			v2["edited/"+p] = v2[p]
			delete(v2, p)
		case 2:
			v2[p] = v1[p]
		}
	}
	return v1, v2
}

// TestLegacyWireRecorded pins the exact byte streams of representative
// sessions: the extension-free shapes, which every hello extension must leave
// byte-identical, and one session per extension that changes the per-file
// phases (multiplexed, CDC, journal). Any diff here is a wire compatibility
// break.
func TestLegacyWireRecorded(t *testing.T) {
	for _, sc := range legacyScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			c2s, s2c := sc.run(t)
			got := encodeStreams(c2s, s2c)
			path := filepath.Join("testdata", fmt.Sprintf("legacy_%s.bin", sc.name))
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run go test -run TestLegacyWireRecorded -update ./internal/collection): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recorded wire stream for %s diverged from golden (%d bytes vs %d): "+
					"non-extension sessions must stay byte-identical", sc.name, len(got), len(want))
			}
		})
	}
}

// TestLegacyWireDeterministic guards the goldens themselves: two runs of the
// same scenario must produce identical bytes, otherwise the recorded-stream
// comparison would be meaningless.
func TestLegacyWireDeterministic(t *testing.T) {
	sc := legacyScenarios()[0]
	a1, b1 := sc.run(t)
	a2, b2 := sc.run(t)
	if !bytes.Equal(a1, a2) || !bytes.Equal(b1, b2) {
		t.Fatal("legacy session transcript is nondeterministic")
	}
}
