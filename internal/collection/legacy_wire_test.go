package collection

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
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

// decodeStreams is the inverse of encodeStreams.
func decodeStreams(t *testing.T, raw []byte) (c2s, s2c []byte) {
	t.Helper()
	var out [2][]byte
	for i := range out {
		if len(raw) < 8 || uint64(len(raw)-8) < binary.LittleEndian.Uint64(raw) {
			t.Fatalf("recorded transcript is truncated in stream %d", i)
		}
		n := binary.LittleEndian.Uint64(raw)
		out[i], raw = raw[8:8+n], raw[8+n:]
	}
	return out[0], out[1]
}

// legacyScenario runs one client/server session pair over a pipe with the
// client end recorded and returns the serialized transcript. A replay
// scenario has no live receiver any more: its receiver half is the one an
// older receiver recorded, fed to today's holder, and -update leaves its file
// alone. In a push the recorded end is the holder, so its half is c2s.
type legacyScenario struct {
	name   string
	run    func(t *testing.T) (c2s, s2c []byte)
	replay bool
	push   bool
}

// goldenPath is where a scenario's transcript is recorded.
func goldenPath(name string) string {
	return filepath.Join("testdata", fmt.Sprintf("legacy_%s.bin", name))
}

// readGolden returns the two halves of a scenario's recorded transcript.
func readGolden(t *testing.T, name string) (c2s, s2c []byte) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return decodeStreams(t, raw)
}

// replayRecorded feeds the receiver half of a recorded transcript to a holder
// over the pipe — hold is a server's Serve, or a pusher's Push — and returns
// the transcript with what the holder answered in place of its recorded half.
func replayRecorded(t *testing.T, name string, hold func(context.Context, io.ReadWriter) (*stats.Costs, error), push bool) (c2s, s2c []byte) {
	t.Helper()
	c2s, s2c = readGolden(t, name)
	recv, answer := &c2s, &s2c
	if push {
		recv, answer = &s2c, &c2s
	}
	a, b := transport.Pipe()
	if _, err := b.Write(*recv); err != nil { // pipe writes never block
		t.Fatal(err)
	}
	_, err := hold(t.Context(), a)
	a.Close()
	if err != nil {
		t.Fatalf("holder: %v", err)
	}
	if *answer, err = io.ReadAll(b); err != nil {
		t.Fatal(err)
	}
	return c2s, s2c
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

// pushRecorded drives pusher against receiver over a pipe with the pusher's
// end recorded.
func pushRecorded(t *testing.T, pusher, receiver *Server) (c2s, s2c []byte) {
	t.Helper()
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
	_, err := pusher.PushContext(t.Context(), rec)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("pusher: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("receiver: %v", srvErr)
	}
	return rec.c2s.Bytes(), rec.s2c.Bytes()
}

// flatPull records one flat-manifest pull three times. name_short is today's
// live session. name keeps the transcript a client from before MANIFEST_PACKED
// recorded, name_packed one from before MANIFEST_SHORT: each client half,
// replayed against today's server, must draw its recorded answer — which is
// the same for both (TestPackedAnswerIsTheLegacyAnswer) and, but for the
// VERDICTS trailer, name_short's (TestShortAnswerIsThePackedAnswer).
func flatPull(name string, setup func(t *testing.T) (*Server, *Client)) []legacyScenario {
	out := []legacyScenario{{name: name + "_short", run: func(t *testing.T) ([]byte, []byte) {
		srv, cli := setup(t)
		return runRecorded(t, srv, cli)
	}}}
	for _, old := range []string{name + "_packed", name} {
		out = append(out, legacyScenario{name: old, replay: true, run: func(t *testing.T) ([]byte, []byte) {
			srv, _ := setup(t)
			return replayRecorded(t, old, srv.ServeContext, false)
		}})
	}
	return out
}

// emacsPull is the flat pull of manifest_pull and its tuned variants: the
// Emacs-profile corpus at seed 5.
func emacsPull(tune func(*Server, *Client)) func(t *testing.T) (*Server, *Client) {
	return func(t *testing.T) (*Server, *Client) {
		v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
		srv, err := NewServer(v2.Map(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(v1.Map())
		tune(srv, cli)
		return srv, cli
	}
}

// weakPull is the fallback pull: tinyTrees(12) under weakConfig.
func weakPull(width int) func(t *testing.T) (*Server, *Client) {
	return func(t *testing.T) (*Server, *Client) {
		v1, v2 := tinyTrees(12)
		srv, err := NewServer(v2, weakConfig())
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(v1)
		srv.MuxStreams, cli.MuxStreams = width, width
		return srv, cli
	}
}

// pushServers are the push scenario's two ends: the pusher holds the newer
// tree.
func pushServers(t *testing.T) (pusher, receiver *Server) {
	v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
	pusher, err := NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if receiver, err = NewServer(v1.Map(), core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return pusher, receiver
}

func legacyScenarios() []legacyScenario {
	var out []legacyScenario
	out = append(out, flatPull("manifest_pull", emacsPull(func(*Server, *Client) {}))...)
	out = append(out, []legacyScenario{
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
		{name: "push_short", push: true, run: func(t *testing.T) ([]byte, []byte) {
			pusher, receiver := pushServers(t)
			return pushRecorded(t, pusher, receiver)
		}},
		{name: "push_packed", push: true, replay: true, run: func(t *testing.T) ([]byte, []byte) {
			// A receiver from before MANIFEST_SHORT, replayed against
			// today's pusher.
			pusher, _ := pushServers(t)
			return replayRecorded(t, "push_packed", pusher.PushContext, true)
		}},
		{name: "push", push: true, replay: true, run: func(t *testing.T) ([]byte, []byte) {
			// A receiver from before MANIFEST_PACKED.
			pusher, _ := pushServers(t)
			return replayRecorded(t, "push", pusher.PushContext, true)
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
		{name: "push_tree", push: true, run: func(t *testing.T) ([]byte, []byte) {
			// A tree-mode push: the receiving server runs the descent and the
			// WANT with no tree cache of its own across sessions.
			pusher, receiver := pushServers(t)
			pusher.TreeManifest = true
			return pushRecorded(t, pusher, receiver)
		}},
		{name: "tree_cdc_pull", run: func(t *testing.T) ([]byte, []byte) {
			// A tree pull with CDC granted: the config's map-mode field
			// rides in the VERDICTS that answer the WANT.
			srv, cli := emacsPull(func(_ *Server, c *Client) { c.TreeManifest, c.MapMode = true, core.MapCDC })(t)
			return runRecorded(t, srv, cli)
		}},
		{name: "announce_unversioned", replay: true, run: func(t *testing.T) ([]byte, []byte) {
			// An older client: it announces version 3 and sends its MANIFEST
			// with it. A server without a store ignores the extension.
			srv, _ := emacsPull(func(*Server, *Client) {})(t)
			return replayRecorded(t, "announce_unversioned", srv.ServeContext, false)
		}},
	}...)
	// Today's client: version 3 by reference. A server without a store asks
	// for the manifest and goes on as above.
	out = append(out, flatPull("announce_ref_unversioned", emacsPull(func(_ *Server, c *Client) {
		c.AnnounceVersion, c.BaseVersion = true, 3
	}))...)
	// The shapes below negotiate an extension that changes the per-file
	// phases; they pin what the benchmark's tiny_tree, big_cdc and
	// journal_live workloads put on the wire.
	out = append(out, flatPull("mux_manifest_pull", emacsPull(func(s *Server, c *Client) {
		s.MuxStreams, c.MuxStreams = 4, 4
	}))...)
	out = append(out, legacyScenario{name: "mux_tree_pull", run: func(t *testing.T) ([]byte, []byte) {
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
	}})
	// Hashes weak enough that false matches survive verification: the ACK
	// lists the files whose whole-file check failed and a FULL frame re-sends
	// them.
	out = append(out, flatPull("fallback_pull", weakPull(0))...)
	out = append(out, flatPull("mux_fallback_pull", weakPull(4))...)
	out = append(out, flatPull("cdc_pull", emacsPull(func(_ *Server, c *Client) { c.MapMode = core.MapCDC }))...)
	out = append(out, []legacyScenario{
		{name: "journal_pull", replay: true, run: func(t *testing.T) ([]byte, []byte) {
			// An older client's journal hit: base version 1 announced, the
			// MANIFEST sent with it. No engines, verdicts carry the deltas,
			// empty DELTA and ACK follow.
			v1, v2 := costTrees()
			return replayRecorded(t, "journal_pull", versionedServer(t, v1, v2, core.DefaultConfig()).ServeContext, false)
		}},
		{name: "journal_ref_pull", run: func(t *testing.T) ([]byte, []byte) {
			// Today's journal hit: the manifest's digest goes up, the same
			// answer comes down (TestJournalRefAnswerIsTheLegacyAnswer).
			v1, v2 := costTrees()
			srv := versionedServer(t, v1, v2, core.DefaultConfig())
			cli := NewClient(v1)
			cli.AnnounceVersion = true
			cli.BaseVersion = 1
			return runRecorded(t, srv, cli)
		}},
	}...)
	// A version the store never held, with streams requested: MANIFEST_REF,
	// MANIFEST_WANT, the manifest, MUX_ACK, VERDICTS.
	return append(out, flatPull("journal_ref_miss", func(t *testing.T) (*Server, *Client) {
		v1, v2 := costTrees()
		srv := versionedServer(t, v1, v2, core.DefaultConfig())
		srv.MuxStreams = 4
		cli := NewClient(v1)
		cli.AnnounceVersion, cli.BaseVersion, cli.MuxStreams = true, 99, 4
		return srv, cli
	})...)
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
			path := goldenPath(sc.name)
			if *updateGoldens && !sc.replay {
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

// TestJournalRefAnswerIsTheLegacyAnswer: a journal hit answers a manifest
// named by its digest with the bytes it answered the manifest itself with —
// the stored list and the client's are one list — while the client's half
// loses the manifest for 18 bytes and stays under a hundred, and a miss opens with
// the five handshake frames in their order.
func TestJournalRefAnswerIsTheLegacyAnswer(t *testing.T) {
	oldUp, oldDown := readGolden(t, "journal_pull")
	newUp, newDown := readGolden(t, "journal_ref_pull")
	if !bytes.Equal(oldDown, newDown) {
		t.Fatalf("the server answers a MANIFEST_REF hit with %d bytes, the MANIFEST hit with %d: not the same stream", len(newDown), len(oldDown))
	}
	// The client's half differs by the one frame: MANIFEST out, 18 bytes in.
	manifest := transcriptFrames(t, oldUp)[1]
	if manifest.typ != wire.FrameManifest || len(newUp) > 96 || len(oldUp)-len(newUp) != manifest.size()-(2+md4.Size) {
		t.Fatalf("client half: %d bytes by reference, %d with a manifest frame of %d", len(newUp), len(oldUp), manifest.size())
	}
	var got []string
	up, down := readGolden(t, "journal_ref_miss")
	for _, f := range transcriptFrames(t, up)[:3] {
		got = append(got, wire.FrameName(f.typ))
	}
	for _, f := range transcriptFrames(t, down)[:3] {
		got = append(got, wire.FrameName(f.typ))
	}
	if want := "HELLO MANIFEST_REF MANIFEST MANIFEST_WANT MUX_ACK VERDICTS"; strings.Join(got, " ") != want {
		t.Fatalf("a miss with streams opens %v, want %s", got, want)
	}
}

// TestPackedAnswerIsTheLegacyAnswer: in every flat shape the holder's answer
// to a receiver that sent MANIFEST_PACKED is byte for byte the answer the
// older receiver draws with MANIFEST — the two frames carry one list. The
// receivers' halves differ in that one frame, and the packed one is the
// shorter.
func TestPackedAnswerIsTheLegacyAnswer(t *testing.T) {
	pairs := 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_packed")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			oldRecv, oldHold := readGolden(t, name)
			newRecv, newHold := readGolden(t, sc.name)
			if sc.push { // the recorded end is the holder
				oldRecv, oldHold, newRecv, newHold = oldHold, oldRecv, newHold, newRecv
			}
			if !bytes.Equal(oldHold, newHold) {
				t.Fatalf("the holder answers MANIFEST_PACKED with %d bytes, MANIFEST with %d: not the same stream", len(newHold), len(oldHold))
			}
			of, nf := transcriptFrames(t, oldRecv), transcriptFrames(t, newRecv)
			if len(of) != len(nf) {
				t.Fatalf("receiver sent %d frames, the older one %d", len(nf), len(of))
			}
			changed := 0
			for i := range of {
				if of[i].typ == nf[i].typ && bytes.Equal(of[i].payload, nf[i].payload) {
					continue
				}
				changed++
				legacy, err := decodeManifest(of[i].payload)
				if err != nil || of[i].typ != wire.FrameManifest || nf[i].typ != wire.FrameManifestPacked {
					t.Fatalf("frame %d: %s in place of %s (%v)", i, wire.FrameName(nf[i].typ), wire.FrameName(of[i].typ), err)
				}
				packed, err := unpackManifest(nf[i].payload, md4.Size)
				if err != nil || !reflect.DeepEqual(packed, legacy) || nf[i].size() >= of[i].size() {
					t.Fatalf("frame %d: MANIFEST_PACKED of %d bytes for a MANIFEST of %d does not carry its list (%v)", i, nf[i].size(), of[i].size(), err)
				}
			}
			if changed != 1 {
				t.Fatalf("%d receiver frames differ, want the manifest alone", changed)
			}
		})
	}
	if pairs != 8 {
		t.Fatalf("%d replay/live pairs, want the eight flat shapes", pairs)
	}
}

// TestShortAnswerIsThePackedAnswer: in every flat shape today's receiver sends
// MANIFEST_SHORT where the older one sent MANIFEST_PACKED — the same list,
// 13 bytes a file shorter — and every other frame as it did; the holder answers
// byte for byte as it answered MANIFEST_PACKED, but for the group sums its
// VERDICTS gains: whole MD4s, inserted in one place.
func TestShortAnswerIsThePackedAnswer(t *testing.T) {
	pairs, trailers := 0, 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_short")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			oldRecv, oldHold := readGolden(t, name+"_packed")
			newRecv, newHold := readGolden(t, sc.name)
			if sc.push {
				oldRecv, oldHold, newRecv, newHold = oldHold, oldRecv, newHold, newRecv
			}
			for _, dir := range []struct {
				what       string
				old, new   []byte
				oldT, newT byte
			}{
				{"receiver", oldRecv, newRecv, wire.FrameManifestPacked, wire.FrameManifestShort},
				{"holder", oldHold, newHold, wire.FrameVerdicts, wire.FrameVerdicts},
			} {
				of, nf := transcriptFrames(t, dir.old), transcriptFrames(t, dir.new)
				if len(of) != len(nf) {
					t.Fatalf("%s sent %d frames, the older one %d", dir.what, len(nf), len(of))
				}
				changed := 0
				for i := range of {
					o, n := of[i].payload, nf[i].payload
					if of[i].typ == nf[i].typ && bytes.Equal(o, n) {
						continue
					}
					changed++
					if of[i].typ != dir.oldT || nf[i].typ != dir.newT {
						t.Fatalf("%s frame %d: %s in place of %s", dir.what, i, wire.FrameName(nf[i].typ), wire.FrameName(of[i].typ))
					}
					if dir.oldT == wire.FrameVerdicts {
						g := len(n) - len(o)
						inserted := false
						for p := 0; p <= len(o) && g > 0 && g%md4.Size == 0; p++ {
							inserted = inserted || bytes.Equal(n[:p], o[:p]) && bytes.Equal(n[p+g:], o[p:])
						}
						if !inserted {
							t.Fatalf("VERDICTS of %d bytes is not the older %d with whole group sums inserted", len(n), len(o))
						}
						continue
					}
					full, err1 := unpackManifest(o, md4.Size)
					short, err2 := unpackManifest(n, shortSum)
					for k := range full {
						clear(full[k].Sum[shortSum:])
					}
					if err1 != nil || err2 != nil || !sameManifest(full, short) || len(o)-len(n) != (md4.Size-shortSum)*len(full) {
						t.Fatalf("MANIFEST_SHORT of %d bytes does not carry the %d-byte MANIFEST_PACKED's list (%v, %v)", len(n), len(o), err1, err2)
					}
				}
				if dir.oldT == wire.FrameVerdicts && changed == 0 {
					continue // no file unchanged, no group sums: fallback_pull's twelve files all differ
				}
				if changed != 1 {
					t.Fatalf("%d %s frames differ, want one", changed, dir.what)
				}
				trailers++
			}
		})
	}
	if pairs != 8 || trailers != 8+6 {
		t.Fatalf("%d live/replay pairs, %d with group sums: want the eight flat shapes, six of them with unchanged files", pairs, trailers-8)
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
