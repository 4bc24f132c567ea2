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
// alone. In a push the recorded end is the holder, so its half is c2s. A pull
// keeps its setup, which TestMuxRefused replays other halves against.
type legacyScenario struct {
	name   string
	run    func(t *testing.T) (c2s, s2c []byte)
	replay bool
	push   bool
	setup  func(t *testing.T) (*Server, *Client)
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
	if push {
		return replay(t, s2c, hold), s2c
	}
	return c2s, replay(t, c2s, hold)
}

// replay feeds a receiver's half of a session to a holder over the pipe and
// returns what the holder answered.
func replay(t *testing.T, recv []byte, hold func(context.Context, io.ReadWriter) (*stats.Costs, error)) []byte {
	t.Helper()
	a, b := transport.Pipe()
	if _, err := b.Write(recv); err != nil { // pipe writes never block
		t.Fatal(err)
	}
	_, err := hold(t.Context(), a)
	a.Close()
	if err != nil {
		t.Fatalf("holder: %v", err)
	}
	answer, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	return answer
}

// runRecorded drives client against server over a recorded pipe.
func runRecorded(t *testing.T, srv *Server, cli *Client) (c2s, s2c []byte) {
	t.Helper()
	return runRecordedVia(t, srv, cli, func(rw io.ReadWriter) io.ReadWriter { return rw })
}

// runRecordedVia is runRecorded with the client's end of the recorded pipe
// wrapped by via: what via writes is what the pipe carries and records.
func runRecordedVia(t *testing.T, srv *Server, cli *Client, via func(io.ReadWriter) io.ReadWriter) (c2s, s2c []byte) {
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
	_, err := cli.Sync(via(rec))
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

// pull records one pull live as name_dstream, today's receiver asking for
// the whole-content stream, delta mode 2 and the delta stream, and keeps
// name_delta2, recorded by a receiver from before hello extension 7,
// name_stream, from before extension 6, and name, from before extension 5, as
// replays: each half, fed to today's server, must draw its recorded answer —
// file by file, in mode 0 before name_delta2.
func pull(name string, setup func(t *testing.T) (*Server, *Client)) []legacyScenario {
	return replays(name+"_dstream", setup, name+"_delta2", name+"_stream", name)
}

// replays is the live scenario live and a replay of each of olds against the
// server setup builds.
func replays(live string, setup func(t *testing.T) (*Server, *Client), olds ...string) []legacyScenario {
	out := []legacyScenario{{name: live, setup: setup, run: func(t *testing.T) ([]byte, []byte) {
		srv, cli := setup(t)
		return runRecorded(t, srv, cli)
	}}}
	for _, old := range olds {
		out = append(out, legacyScenario{name: old, replay: true, setup: setup, run: func(t *testing.T) ([]byte, []byte) {
			srv, _ := setup(t)
			return replayRecorded(t, old, srv.ServeContext, false)
		}})
	}
	return out
}

// treePull records one tree pull live as name_dstream, today's receiver
// asking for both tree capabilities, delta mode 2 and the delta stream.
// name_delta2, recorded before extension 7, name_caps, before extension 6,
// name_stream and name, recorded by receivers that asked for what their
// options chose, and olds are kept as replays: today's holder, which grants
// what a hello asks, must draw each recorded answer.
func treePull(name string, setup func(t *testing.T) (*Server, *Client), olds ...string) []legacyScenario {
	return replays(name+"_dstream", setup, append([]string{name + "_delta2", name + "_caps", name + "_stream", name}, olds...)...)
}

// flatPull records one flat-manifest pull six times. name_dstream is today's
// live session. name keeps the transcript a client from before
// MANIFEST_PACKED recorded, name_packed one from before MANIFEST_SHORT,
// name_short one from before the whole-content stream, name_stream one from
// before delta mode 2, name_delta2 one from before the delta stream: each
// client half, replayed against today's server, must draw its recorded answer
// — which is the same for the first two (TestPackedAnswerIsTheLegacyAnswer)
// and, but for the VERDICTS trailer, name_short's
// (TestShortAnswerIsThePackedAnswer).
func flatPull(name string, setup func(t *testing.T) (*Server, *Client)) []legacyScenario {
	return replays(name+"_dstream", setup, name+"_delta2", name+"_stream", name+"_short", name+"_packed", name)
}

// emacsPull is the flat pull of manifest_pull and its tuned variants: the
// Emacs-profile corpus at seed 5, served under the paper's config.
func emacsPull(tune func(*Server, *Client)) func(t *testing.T) (*Server, *Client) {
	return emacsPullUnder(core.PaperConfig(), tune)
}

// emacsPullUnder is emacsPull served under cfg.
func emacsPullUnder(cfg core.Config, tune func(*Server, *Client)) func(t *testing.T) (*Server, *Client) {
	return func(t *testing.T) (*Server, *Client) {
		v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
		srv, err := NewServer(v2.Map(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(v1.Map())
		tune(srv, cli)
		return srv, cli
	}
}

// weakPull is the fallback pull: tinyTrees(12) under weakConfig.
func weakPull(t *testing.T) (*Server, *Client) {
	v1, v2 := tinyTrees(12)
	srv, err := NewServer(v2, weakConfig())
	if err != nil {
		t.Fatal(err)
	}
	return srv, NewClient(v1)
}

// pushServers are the push scenario's two ends: the pusher holds the newer
// tree.
func pushServers(t *testing.T) (pusher, receiver *Server) {
	v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
	pusher, err := NewServer(v2.Map(), core.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if receiver, err = NewServer(v1.Map(), core.PaperConfig()); err != nil {
		t.Fatal(err)
	}
	return pusher, receiver
}

func legacyScenarios() []legacyScenario {
	var out []legacyScenario
	out = append(out, flatPull("manifest_pull", emacsPull(func(*Server, *Client) {}))...)
	// gccPull is the tree pull of tree_pull and its tuned variants.
	gccPull := func(tune func(*Client)) func(t *testing.T) (*Server, *Client) {
		return func(t *testing.T) (*Server, *Client) {
			v1, v2 := corpus.GCCProfile(0.05).Generate(9)
			srv, err := NewServer(v2.Map(), core.PaperConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.TreeManifest = true
			tune(cli)
			return srv, cli
		}
	}
	// tree_pull_spec's receivers asked for speculative descent alone, of the
	// same pull: today's tree_pull_caps is its live session too.
	out = append(out, treePull("tree_pull", gccPull(func(*Client) {}), "tree_pull_spec_stream", "tree_pull_spec")...)
	out = append(out, []legacyScenario{
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
		{name: "push_tree", push: true, run: func(t *testing.T) ([]byte, []byte) {
			// A tree-mode push: the receiving server runs the descent and the
			// WANT with no tree cache of its own across sessions.
			pusher, receiver := pushServers(t)
			pusher.TreeManifest = true
			return pushRecorded(t, pusher, receiver)
		}},
		{name: "announce_unversioned", replay: true, run: func(t *testing.T) ([]byte, []byte) {
			// An older client: it announces version 3 and sends its MANIFEST
			// with it. A server without a store ignores the extension.
			srv, _ := emacsPull(func(*Server, *Client) {})(t)
			return replayRecorded(t, "announce_unversioned", srv.ServeContext, false)
		}},
	}...)
	// Tree pull where files moved: a pure rename leaves the WANT, an
	// alternate-basis hint tags a moved-and-edited file.
	out = append(out, treePull("tree_pull_cross", func(t *testing.T) (*Server, *Client) {
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
		srv, err := NewServer(serverFiles, core.PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(clientFiles)
		cli.TreeManifest = true
		return srv, cli
	})...)
	// A tree pull with CDC granted: the config's map-mode field rides in the
	// VERDICTS that answer the WANT.
	out = append(out, treePull("tree_cdc_pull", emacsPull(func(_ *Server, c *Client) { c.TreeManifest, c.MapMode = true, core.MapCDC }))...)
	// Today's client: version 3 by reference. A server without a store asks
	// for the manifest and goes on as above.
	out = append(out, flatPull("announce_ref_unversioned", emacsPull(func(_ *Server, c *Client) {
		c.AnnounceVersion, c.BaseVersion = true, 3
	}))...)
	// The shapes below are those of the benchmark's tiny_tree, big_cdc and
	// journal_live workloads (default_* below: under the config those run),
	// and the full-transfer fallback. tiny_tree_pull is the tiny_tree option
	// set.
	out = append(out, replays("tiny_tree_pull_dstream", tinyTreePull(core.PaperConfig()), "tiny_tree_pull_delta2", "tiny_tree_pull")...)
	// Hashes weak enough that false matches survive verification: the ACK
	// lists the files whose whole-file check failed and a FULL frame re-sends
	// them.
	out = append(out, flatPull("fallback_pull", weakPull)...)
	out = append(out, flatPull("cdc_pull", emacsPull(func(_ *Server, c *Client) { c.MapMode = core.MapCDC }))...)
	// A list past tableMin whose table peels: MANIFEST_TABLE up, VERDICTS
	// naming the differing files and ending with the list digest down
	// (TestTableAnswerIsTheShortAnswer holds the rest to the short answer).
	out = append(out, pull("table_pull", func(t *testing.T) (*Server, *Client) {
		v1, v2 := tableTrees(2000, 30)
		srv, err := NewServer(v2, core.PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		return srv, NewClient(v1)
	})...)
	// The default config, one verification batch a round: a flat pull, the
	// tiny_tree option set and a CDC pull.
	def := core.DefaultConfig()
	out = append(out, pull("default_pull", emacsPullUnder(def, func(*Server, *Client) {}))...)
	out = append(out, replays("default_tiny_tree_pull_dstream", tinyTreePull(def), "default_tiny_tree_pull_delta2", "default_tiny_tree_pull")...)
	out = append(out, pull("default_cdc_pull", emacsPullUnder(def, func(_ *Server, c *Client) { c.MapMode = core.MapCDC }))...)
	out = append(out, legacyScenario{name: "journal_pull", replay: true, run: func(t *testing.T) ([]byte, []byte) {
		// An older client's journal hit: base version 1 announced, the
		// MANIFEST sent with it. No engines, verdicts carry the deltas,
		// empty DELTA and ACK follow.
		v1, v2 := costTrees()
		return replayRecorded(t, "journal_pull", versionedServer(t, v1, v2, core.PaperConfig()).ServeContext, false)
	}})
	// Today's journal hit: the manifest's digest goes up, the same answer
	// comes down (TestJournalRefAnswerIsTheLegacyAnswer).
	out = append(out, pull("journal_ref_pull", func(t *testing.T) (*Server, *Client) {
		v1, v2 := costTrees()
		srv := versionedServer(t, v1, v2, core.PaperConfig())
		cli := NewClient(v1)
		cli.AnnounceVersion = true
		cli.BaseVersion = 1
		return srv, cli
	})...)
	// A version the store never held: MANIFEST_REF, MANIFEST_WANT, the
	// manifest, VERDICTS, then the map rounds.
	return append(out, replays("journal_ref_miss_pull_dstream", func(t *testing.T) (*Server, *Client) {
		v1, v2 := costTrees()
		srv := versionedServer(t, v1, v2, core.PaperConfig())
		cli := NewClient(v1)
		cli.AnnounceVersion, cli.BaseVersion = true, 99
		return srv, cli
	}, "journal_ref_miss_pull_delta2", "journal_ref_miss_pull")...)
}

// tinyTreePull is the tiny_tree option set under cfg: a merkle-manifest pull
// (with speculative descent and cross-file matching) of moved and edited tiny
// files.
func tinyTreePull(cfg core.Config) func(t *testing.T) (*Server, *Client) {
	return func(t *testing.T) (*Server, *Client) {
		clientFiles, serverFiles := movedTrees(tinyTrees(48))
		srv, err := NewServer(serverFiles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(clientFiles)
		cli.TreeManifest = true
		return srv, cli
	}
}

// weakConfig is a legal configuration whose 4-bit block hashes and 6-bit
// verification hashes let false matches through on about half of
// tinyTrees' files, so their whole-file checks fail and the session has to
// fall back to full transfers (tinyTrees(12): 6 of 12 files).
func weakConfig() core.Config {
	cfg := core.PaperConfig()
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
// byte-identical, and one session per extension that changes what the
// per-file phases run over (tree, CDC, journal), all under PaperConfig, and
// three under DefaultConfig. Any diff here is a wire compatibility break.
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
// loses the manifest for 18 bytes and stays under a hundred, and a miss opens
// with the four handshake frames in their order and goes on to map.
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
	up, down := readGolden(t, "journal_ref_miss_pull")
	for _, f := range transcriptFrames(t, up)[:3] {
		got = append(got, wire.FrameName(f.typ))
	}
	for _, f := range transcriptFrames(t, down)[:3] {
		got = append(got, wire.FrameName(f.typ))
	}
	if want := "HELLO MANIFEST_REF MANIFEST_SHORT MANIFEST_WANT VERDICTS ROUND_HASHES"; strings.Join(got, " ") != want {
		t.Fatalf("a miss opens %v, want %s", got, want)
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
	if pairs != 5 {
		t.Fatalf("%d replay/live pairs, want the five flat shapes", pairs)
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
	if pairs != 5 || trailers != 5+4 {
		t.Fatalf("%d live/replay pairs, %d with group sums: want the five flat shapes, four of them with unchanged files", pairs, trailers-5)
	}
}

// TestStreamAnswerIsThePerFileAnswer: in every live pull the receiver sends
// what the older receiver of its replayed twin sent, but for the HELLO, which
// asks for the whole-content stream too; the holder answers as it answered
// that receiver, but for VERDICTS, which carry the same verdicts, the same
// content and the same trailer, the whole files in the stream and the config
// granting it.
func TestStreamAnswerIsThePerFileAnswer(t *testing.T) {
	pairs, streamed := 0, 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_stream")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			old := name + "_short" // a flat shape's receiver from before the stream
			if _, err := os.Stat(goldenPath(old)); err != nil {
				old = name
			}
			oldUp, oldDown := readGolden(t, old)
			newUp, newDown := readGolden(t, sc.name)
			ou, nu := transcriptFrames(t, oldUp), transcriptFrames(t, newUp)
			if len(ou) != len(nu) || ou[0].typ != wire.FrameHello || nu[0].typ != wire.FrameHello {
				t.Fatalf("receiver sent %d frames, the older one %d", len(nu), len(ou))
			}
			h := parseHelloExts(wire.NewParser(nu[0].payload[3:]))
			if !h.stream {
				t.Fatal("the receiver did not ask for the whole-content stream")
			}
			h.stream = false
			hb := wire.NewBuffer(16)
			hb.Raw(nu[0].payload[:3])
			h.encode(hb)
			nu[0].payload = hb.Build()
			for i := range ou {
				if ou[i].typ != nu[i].typ || !bytes.Equal(ou[i].payload, nu[i].payload) {
					t.Fatalf("receiver frame %d: %s of %d bytes in place of %s of %d", i, wire.FrameName(nu[i].typ), len(nu[i].payload), wire.FrameName(ou[i].typ), len(ou[i].payload))
				}
			}
			od, nd := transcriptFrames(t, oldDown), transcriptFrames(t, newDown)
			if len(od) != len(nd) {
				t.Fatalf("holder sent %d frames, to the older receiver %d", len(nd), len(od))
			}
			for i := range od {
				if od[i].typ != nd[i].typ {
					t.Fatalf("holder frame %d: %s in place of %s", i, wire.FrameName(nd[i].typ), wire.FrameName(od[i].typ))
				}
				if od[i].typ != wire.FrameVerdicts {
					if !bytes.Equal(od[i].payload, nd[i].payload) {
						t.Fatalf("holder frame %d (%s) differs", i, wire.FrameName(od[i].typ))
					}
					continue
				}
				named := name == "table_pull" // VERDICTS answering a MANIFEST_TABLE name their files
				v, o := parseWhole(nd[i].payload, named), parseWhole(od[i].payload, named)
				if !v.stream || o.stream || !reflect.DeepEqual(v.content, o.content) || !bytes.Equal(v.skeleton(), o.skeleton()) {
					t.Fatalf("VERDICTS of %d bytes are not the older receiver's %d with the whole content streamed", len(nd[i].payload), len(od[i].payload))
				}
				if len(v.content) > 0 {
					streamed++
				}
			}
		})
	}
	if pairs != 12 || streamed == 0 {
		t.Fatalf("%d live/replay pairs, %d with whole files: want the twelve pulls, some sending files whole", pairs, streamed)
	}
}

// TestDelta2AnswerIsTheMode0Answer: in every live pull the receiver sends
// what the older receiver of its parent transcript sent, but for the HELLO,
// which asks for delta mode 2 too (hello extension 6); the holder answers
// with the same frames and the same content, every encoding in DELTA, FULL
// and VERDICTS — per-file whole files and stream segments — written in mode 2
// (or stored) where the parent's, which today's holder still draws byte for
// byte (the replays of TestLegacyWireRecorded), is mode 0 (or stored). An
// encoding stored in both, or a store's journal blob, is the same in both.
// Mode 2 never makes the holder's half longer.
func TestDelta2AnswerIsTheMode0Answer(t *testing.T) {
	pairs, moved := 0, 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_delta2")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			oldUp, oldDown := readGolden(t, delta2Parent(name))
			newUp, newDown := readGolden(t, sc.name)
			ou, nu := transcriptFrames(t, oldUp), transcriptFrames(t, newUp)
			if len(ou) != len(nu) || nu[0].typ != wire.FrameHello {
				t.Fatalf("receiver sent %d frames, the older one %d", len(nu), len(ou))
			}
			h := parseHelloExts(wire.NewParser(nu[0].payload[3:]))
			if !h.delta2 {
				t.Fatal("the receiver did not ask for delta mode 2")
			}
			h.delta2 = false
			hb := wire.NewBuffer(16)
			hb.Raw(nu[0].payload[:3])
			h.encode(hb)
			nu[0].payload = hb.Build()
			for i := range ou {
				if ou[i].typ != nu[i].typ || !bytes.Equal(ou[i].payload, nu[i].payload) {
					t.Fatalf("receiver frame %d: %s of %d bytes in place of %s of %d", i, wire.FrameName(nu[i].typ), len(nu[i].payload), wire.FrameName(ou[i].typ), len(ou[i].payload))
				}
			}
			od, nd := transcriptFrames(t, oldDown), transcriptFrames(t, newDown)
			if len(od) != len(nd) {
				t.Fatalf("holder sent %d frames, to the older receiver %d", len(nd), len(od))
			}
			for i := range od {
				if od[i].typ != nd[i].typ {
					t.Fatalf("holder frame %d: %s in place of %s", i, wire.FrameName(nd[i].typ), wire.FrameName(od[i].typ))
				}
				ofix, o := encodingsIn(od[i], name == "table_pull")
				nfix, n := encodingsIn(nd[i], name == "table_pull")
				if !reflect.DeepEqual(ofix, nfix) {
					t.Fatalf("holder frame %d (%s) differs but for its encodings", i, wire.FrameName(od[i].typ))
				}
				if len(o) != len(n) {
					t.Fatalf("holder frame %d (%s): %d encodings, to the older receiver %d", i, wire.FrameName(od[i].typ), len(n), len(o))
				}
				for k := range o {
					if bytes.Equal(o[k], n[k]) {
						// Stored in both, or a store's blob; a DELTA
						// section's encoding starts past its confirm bits.
						if _, at := binary.Uvarint(n[k]); od[i].typ != wire.FrameDelta && !strings.HasPrefix(name, "journal") && n[k][at] != 1 {
							t.Fatalf("holder frame %d (%s), encoding %d: mode %d to a receiver asking for mode 2", i, wire.FrameName(od[i].typ), k, n[k][at])
						}
						continue
					}
					// The first byte that differs is the mode byte: each
					// encoding follows the same prefix and declares the same
					// target length. Mode 0 may have fallen back to stored
					// where mode 2 compresses, and mode 2 to stored too.
					at := 0
					for at < min(len(o[k]), len(n[k])) && o[k][at] == n[k][at] {
						at++
					}
					if at == len(o[k]) || at == len(n[k]) || o[k][at] > 1 || n[k][at] < 1 || n[k][at] > 2 {
						t.Fatalf("holder frame %d (%s), encoding %d: not the parent's mode-0 encoding in mode 2", i, wire.FrameName(od[i].typ), k)
					}
					moved++
				}
			}
			if len(newDown) > len(oldDown) {
				t.Fatalf("the holder's half is %d bytes in mode 2, %d in mode 0", len(newDown), len(oldDown))
			}
		})
	}
	if pairs != 14 || moved == 0 {
		t.Fatalf("%d live/parent pairs, %d encodings in mode 2: want the fourteen pulls", pairs, moved)
	}
}

// delta2Parent is the transcript the live pull name_delta2 was recorded in
// before hello extension 6: name_caps, name_stream or name, the first kept.
func delta2Parent(name string) string {
	for _, suffix := range []string{"_caps", "_stream"} {
		if _, err := os.Stat(goldenPath(name + suffix)); err == nil {
			return name + suffix
		}
	}
	return name
}

// withoutExts is a pulling client's connection whose first write, which
// opens with the HELLO frame, goes out with the hello extensions strip clears
// removed: the holder reads the hello of a receiver that does not ask for
// them. strip reports whether the hello asked for all of them; added is what
// that changed on the wire (the stripped bytes, negative), which the client
// does not account and the server does.
type withoutExts struct {
	io.ReadWriter
	strip          func(h *helloExts) bool
	sent, stripped bool
	added          int
}

// withoutDelta2 strips hello extension 6, and 7, which came after it.
func withoutDelta2(h *helloExts) bool {
	asked := h.delta2 && h.dstream
	h.delta2, h.dstream = false, false
	return asked
}

// withoutDeltaStream strips hello extension 7.
func withoutDeltaStream(h *helloExts) bool {
	asked := h.dstream
	h.dstream = false
	return asked
}

func (c *withoutExts) Write(p []byte) (int, error) {
	if c.sent {
		return c.ReadWriter.Write(p)
	}
	c.sent = true
	fp := wire.NewParser(p)
	typ, err1 := fp.Byte()
	hello, err2 := fp.Bytes()
	if err1 != nil || err2 != nil || typ != wire.FrameHello {
		return 0, fmt.Errorf("the first write is not a whole HELLO frame")
	}
	hp := wire.NewParser(hello)
	hp.Uvarint() // protocol version
	hp.Raw(2)    // role, mode
	hb := wire.NewBuffer(len(hello))
	hb.Raw(hello[:len(hello)-hp.Remaining()])
	h := parseHelloExts(hp)
	c.stripped = c.strip(&h)
	h.encode(hb)
	b := wire.NewBuffer(len(p))
	b.Byte(wire.FrameHello)
	b.Bytes(hb.Build())
	b.Raw(p[len(p)-fp.Remaining():])
	out := b.Build()
	c.added = len(out) - len(p)
	if _, err := c.ReadWriter.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestNoDelta2HelloIsTheParentSession: a live pull whose HELLO reaches the
// holder without hello extension 6 (nor 7, which came after it) is, in both
// directions and byte for byte, the parent transcript its receiver recorded
// before the extension existed, so every DELTA section, FULL file and
// whole-content segment stays in mode 0 (or stored) for a receiver that does
// not ask for mode 2.
func TestNoDelta2HelloIsTheParentSession(t *testing.T) {
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_delta2")
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			srv, cli := sc.setup(t)
			conn := &withoutExts{strip: withoutDelta2}
			up, down := runRecordedVia(t, srv, cli, func(rw io.ReadWriter) io.ReadWriter {
				conn.ReadWriter = rw
				return conn
			})
			if !conn.stripped {
				t.Fatal("the client's HELLO did not ask for delta mode 2")
			}
			wantUp, wantDown := readGolden(t, delta2Parent(name))
			if !bytes.Equal(up, wantUp) || !bytes.Equal(down, wantDown) {
				t.Fatalf("the pull without extension 6 moved %d+%d bytes, its parent transcript %d+%d", len(up), len(down), len(wantUp), len(wantDown))
			}
			for i, f := range transcriptFrames(t, down) {
				if f.typ == wire.FrameDelta {
					continue // byte-identical to a transcript recorded before mode 2
				}
				_, encs := encodingsIn(f, name == "table_pull")
				for k, e := range encs {
					if _, at := binary.Uvarint(e); at <= 0 || at >= len(e) || e[at] > 1 {
						t.Fatalf("holder frame %d (%s), encoding %d: not mode 0 or stored", i, wire.FrameName(f.typ), k)
					}
				}
			}
		})
	}
}

// TestNoDeltaStreamHelloIsTheParentSession: a live pull whose HELLO reaches
// the holder without hello extension 7 is, in both directions and byte for
// byte, the name_delta2 transcript its receiver recorded before the extension
// existed: a receiver that does not ask gets one DELTA section a file.
func TestNoDeltaStreamHelloIsTheParentSession(t *testing.T) {
	pairs := 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_dstream")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			srv, cli := sc.setup(t)
			conn := &withoutExts{strip: withoutDeltaStream}
			up, down := runRecordedVia(t, srv, cli, func(rw io.ReadWriter) io.ReadWriter {
				conn.ReadWriter = rw
				return conn
			})
			if !conn.stripped {
				t.Fatal("the client's HELLO did not ask for the delta stream")
			}
			wantUp, wantDown := readGolden(t, name+"_delta2")
			if !bytes.Equal(up, wantUp) || !bytes.Equal(down, wantDown) {
				t.Fatalf("the pull without extension 7 moved %d+%d bytes, its parent transcript %d+%d", len(up), len(down), len(wantUp), len(wantDown))
			}
		})
	}
	if pairs != 14 {
		t.Fatalf("%d live pulls, want fourteen", pairs)
	}
}

// TestDeltaStreamAnswerIsThePerFileAnswer: in every live pull the receiver
// sends what the receiver of its name_delta2 twin sent, but for the HELLO,
// which asks for the delta stream too (hello extension 7); the holder answers
// with the same frames, but for the grant in the VERDICTS config and the
// DELTA frame. That carries the twin's sections' heads — confirm bits and
// whole-file sum — then segments cut by the synced files' lengths, each
// declaring its files' summed gaps, a file alone in its segment coded as its
// section's delta was. Over the fourteen pulls, the DELTA frames are
// shorter.
func TestDeltaStreamAnswerIsThePerFileAnswer(t *testing.T) {
	pairs, shared, perFile, streamed := 0, 0, 0, 0
	for _, sc := range legacyScenarios() {
		name, ok := strings.CutSuffix(sc.name, "_dstream")
		if !ok {
			continue
		}
		pairs++
		t.Run(name, func(t *testing.T) {
			oldUp, oldDown := readGolden(t, name+"_delta2")
			newUp, newDown := readGolden(t, sc.name)
			ou, nu := transcriptFrames(t, oldUp), transcriptFrames(t, newUp)
			if len(ou) != len(nu) || nu[0].typ != wire.FrameHello {
				t.Fatalf("receiver sent %d frames, the older one %d", len(nu), len(ou))
			}
			h := parseHelloExts(wire.NewParser(nu[0].payload[3:]))
			if !h.dstream {
				t.Fatal("the receiver did not ask for the delta stream")
			}
			h.dstream = false
			hb := wire.NewBuffer(16)
			hb.Raw(nu[0].payload[:3])
			h.encode(hb)
			nu[0].payload = hb.Build()
			for i := range ou {
				if ou[i].typ == wire.FrameAck && nu[i].typ == wire.FrameAck {
					// A false match's wrong bytes may reach its segment's
					// neighbours: the ACK lists the twin's failures, and
					// maybe more (TestFalseMatchSpreadsInSegment).
					sectionsWithin(t, ou[i].payload, nu[i].payload, false)
					continue
				}
				if ou[i].typ != nu[i].typ || !bytes.Equal(ou[i].payload, nu[i].payload) {
					t.Fatalf("receiver frame %d: %s of %d bytes in place of %s of %d", i, wire.FrameName(nu[i].typ), len(nu[i].payload), wire.FrameName(ou[i].typ), len(ou[i].payload))
				}
			}
			od, nd := transcriptFrames(t, oldDown), transcriptFrames(t, newDown)
			if len(od) != len(nd) {
				t.Fatalf("holder sent %d frames, to the older receiver %d", len(nd), len(od))
			}
			var lens []uint64 // the synced files' lengths, from VERDICTS
			for i := range od {
				switch {
				case od[i].typ != nd[i].typ:
					t.Fatalf("holder frame %d: %s in place of %s", i, wire.FrameName(nd[i].typ), wire.FrameName(od[i].typ))
				case od[i].typ == wire.FrameVerdicts:
					v, o := parseWhole(nd[i].payload, name == "table_pull"), parseWhole(od[i].payload, name == "table_pull")
					if v.grant != grantDeltaStream || o.grant != grantStream || !bytes.Equal(v.skeleton(), o.skeleton()) || !reflect.DeepEqual(v.segments(), o.segments()) {
						t.Fatalf("VERDICTS of %d bytes are not the older receiver's %d granting the delta stream", len(nd[i].payload), len(od[i].payload))
					}
					lens = v.syncLens
				case od[i].typ == wire.FrameDelta:
					s := deltaStreamOf(t, od[i].payload, nd[i].payload, lens)
					shared += s
					perFile, streamed = perFile+len(od[i].payload), streamed+len(nd[i].payload)
				case od[i].typ == wire.FrameFull:
					sectionsWithin(t, od[i].payload, nd[i].payload, true)
				case !bytes.Equal(od[i].payload, nd[i].payload):
					t.Fatalf("holder frame %d (%s) differs", i, wire.FrameName(od[i].typ))
				}
			}
		})
	}
	if pairs != 14 || shared == 0 || streamed >= perFile {
		t.Fatalf("%d live/parent pairs, %d shared segments, DELTA frames of %d bytes against %d file by file: want fourteen pulls, some segments shared, fewer bytes", pairs, shared, streamed, perFile)
	}
}

// sectionsWithin requires every entry of the index list sub (an ACK's, or
// a FULL's with bodies) in the list super, with the same body.
func sectionsWithin(t *testing.T, sub, super []byte, bodies bool) {
	t.Helper()
	a, err1 := parseSections(sub, 1<<20, bodies)
	b, err2 := parseSections(super, 1<<20, bodies)
	if err1 != nil || err2 != nil {
		t.Fatalf("index lists do not parse: %v, %v", err1, err2)
	}
	byIdx := map[int][]byte{}
	for _, sec := range b {
		byIdx[sec.idx] = sec.body
	}
	for _, sec := range a {
		if body, ok := byIdx[sec.idx]; !ok || !bytes.Equal(body, sec.body) {
			t.Fatalf("ordinal %d of the older receiver's list is not in today's %d entries", sec.idx, len(b))
		}
	}
}

// deltaStreamOf holds a DELTA frame in the stream layout to its twin in the
// per-file layout, for synced files of the given lengths, and returns how
// many of its segments more than one file shares.
func deltaStreamOf(t *testing.T, perFile, stream []byte, lens []uint64) int {
	t.Helper()
	pp, sp := wire.NewParser(perFile), wire.NewParser(stream)
	n, err1 := pp.Uvarint()
	m, err2 := sp.Uvarint()
	if err1 != nil || err2 != nil || n != m || n != uint64(len(lens)) {
		t.Fatalf("DELTA for %d files, the older receiver's for %d; %d synced", m, n, len(lens))
	}
	gaps, encs := make([]uint64, n), make([][]byte, n)
	for i := range gaps {
		sec, err1 := pp.Bytes()
		hdr, err2 := sp.Bytes()
		if err1 != nil || err2 != nil || !bytes.HasPrefix(sec, hdr) {
			t.Fatalf("file %d: header of %d bytes is not the head of its section of %d", i, len(hdr), len(sec))
		}
		encs[i] = sec[len(hdr):]
		gaps[i], _ = binary.Uvarint(encs[i])
	}
	shared, lo := 0, 0
	for k, hi := range segmentEnds(lens, deltaSegmentMax) {
		seg, err := sp.Bytes()
		if err != nil {
			t.Fatalf("segment %d missing", k)
		}
		var sum uint64
		for _, g := range gaps[lo:hi] {
			sum += g
		}
		if declared, _ := binary.Uvarint(seg); declared != sum {
			t.Fatalf("segment %d declares %d bytes, its files' gaps %d", k, declared, sum)
		}
		if hi-lo == 1 && !bytes.Equal(seg, encs[lo]) {
			t.Fatalf("segment %d of one file is not its section's delta", k)
		}
		if hi-lo > 1 {
			shared++
		}
		lo = hi
	}
	if sp.Remaining() != 0 || pp.Remaining() != 0 {
		t.Fatalf("%d bytes after the segments, %d after the sections", sp.Remaining(), pp.Remaining())
	}
	return shared
}

// encodingsIn takes a holder's frame apart into what it carries in delta
// format and the rest, fixed. The encodings are a DELTA frame's sections
// (each ends in one), a FULL frame's files, and a VERDICTS frame's whole
// files — one compressed file each, or a stream's segments; fixed is the
// other bytes of those frames (a VERDICTS frame's skeleton and the content
// of its whole files), and the whole payload of any other frame.
func encodingsIn(f wireFrame, named bool) (fixed, encs [][]byte) {
	p := wire.NewParser(f.payload)
	switch f.typ {
	case wire.FrameVerdicts:
		v := parseWhole(f.payload, named)
		fixed = append([][]byte{v.skeleton()}, v.content...)
		if v.stream {
			return fixed, v.segments()
		}
		for _, fld := range v.fields {
			comp, _ := wire.NewParser(f.payload[fld[0]:fld[1]]).Bytes()
			encs = append(encs, comp)
		}
		return fixed, encs
	case wire.FrameDelta, wire.FrameFull:
		n, err := p.Uvarint()
		fixed = append(fixed, wire.AppendUvarint(nil, n))
		for ; err == nil && n > 0; n-- {
			if f.typ == wire.FrameFull {
				var idx uint64
				if idx, err = p.Uvarint(); err != nil {
					break
				}
				fixed = append(fixed, wire.AppendUvarint(nil, idx))
			}
			var sec []byte
			sec, err = p.Bytes()
			encs = append(encs, sec)
		}
		if err != nil || p.Remaining() != 0 {
			panic("legacy_wire_test: a " + wire.FrameName(f.typ) + " frame does not parse")
		}
		return fixed, encs
	}
	return [][]byte{f.payload}, nil
}

// TestBothCapsAnswerIsTheOneCapAnswer: tree_pull_spec's receiver asked for
// speculative descent alone, tree_pull_cross's for cross-file matching alone,
// and in neither pull has the other capability anything to do. Today's
// receiver asks for both and sends what the older one sent but for the mask
// in its HELLO; the holder answers as it did but for the mask its TREE_ACK
// grants. Asking for the second capability costs no byte.
func TestBothCapsAnswerIsTheOneCapAnswer(t *testing.T) {
	for _, pair := range [][2]string{{"tree_pull_spec_stream", "tree_pull_caps"}, {"tree_pull_cross_stream", "tree_pull_cross_caps"}} {
		t.Run(pair[1], func(t *testing.T) {
			oldUp, oldDown := readGolden(t, pair[0])
			newUp, newDown := readGolden(t, pair[1])
			ou, nu := transcriptFrames(t, oldUp), transcriptFrames(t, newUp)
			od, nd := transcriptFrames(t, oldDown), transcriptFrames(t, newDown)
			if len(ou) != len(nu) || len(od) != len(nd) || ou[0].typ != wire.FrameHello || od[0].typ != wire.FrameTreeAck {
				t.Fatalf("frames %d up and %d down, the older receiver's %d and %d", len(nu), len(nd), len(ou), len(od))
			}
			asked := parseHelloExts(wire.NewParser(ou[0].payload[3:])).treeCaps
			h := parseHelloExts(wire.NewParser(nu[0].payload[3:]))
			if h.treeCaps != treeCapSpec|treeCapCross || asked == h.treeCaps {
				t.Fatalf("today's receiver asks for tree capabilities %b, the older one %b", h.treeCaps, asked)
			}
			h.treeCaps = asked
			hb := wire.NewBuffer(16)
			hb.Raw(nu[0].payload[:3])
			h.encode(hb)
			nu[0].payload = hb.Build()
			if !bytes.Equal(nd[0].payload, []byte{treeCapSpec | treeCapCross}) || !bytes.Equal(od[0].payload, []byte{asked}) {
				t.Fatalf("TREE_ACK grants %x, the older receiver was granted %x", nd[0].payload, od[0].payload)
			}
			nd[0].payload = od[0].payload
			for _, f := range [][2][]wireFrame{{ou, nu}, {od, nd}} {
				for i := range f[0] {
					if f[0][i].typ != f[1][i].typ || !bytes.Equal(f[0][i].payload, f[1][i].payload) {
						t.Fatalf("frame %d: %s of %d bytes in place of %s of %d", i, wire.FrameName(f[1][i].typ), len(f[1][i].payload), wire.FrameName(f[0][i].typ), len(f[0][i].payload))
					}
				}
			}
		})
	}
}

// muxTwins pairs each transcript a client asking for stream multiplexing
// recorded before its retirement, at width, with its lockstep twin: the same
// pull recorded today.
var muxTwins = []struct {
	mux, twin string
	width     int
}{
	{"mux_manifest_pull_stream", "manifest_pull_stream", 4},
	{"mux_fallback_pull_stream", "fallback_pull_stream", 4},
	{"mux_tree_pull_stream", "tiny_tree_pull", 16},
	{"default_mux_tree_pull_stream", "default_tiny_tree_pull", 16},
	{"journal_ref_miss_stream", "journal_ref_miss_pull", 4},
}

// TestMuxRefused: a server ignores the retired stream-multiplexing request
// (hello extension 2) and runs the lockstep session. Each transcript a
// multiplexing client recorded opens with a HELLO asking for what its twin's
// client asks today, and for extension 2; spliced in front of the twin's
// client half in place of that client's HELLO, it draws the twin's server
// half byte for byte. (The rest of the recorded client half replies in
// CYCLE and STREAM frames, which no server accepts any more.)
func TestMuxRefused(t *testing.T) {
	scenarios := map[string]legacyScenario{}
	for _, sc := range legacyScenarios() {
		scenarios[sc.name] = sc
	}
	for _, tw := range muxTwins {
		t.Run(tw.mux, func(t *testing.T) {
			muxUp, _ := readGolden(t, tw.mux)
			up, down := readGolden(t, tw.twin)
			muxHello, hello := transcriptFrames(t, muxUp)[0], transcriptFrames(t, up)[0]
			if muxHello.typ != wire.FrameHello || hello.typ != wire.FrameHello || !bytes.Equal(muxHello.payload, withMuxExt(hello.payload, tw.width)) {
				t.Fatalf("the recorded HELLO (%d bytes) is not today's (%d bytes) asking for %d streams too", len(muxHello.payload), len(hello.payload), tw.width)
			}
			var spliced bytes.Buffer
			fw := wire.NewFrameWriter(&spliced)
			if fw.WriteFrame(wire.FrameHello, muxHello.payload) != nil || fw.Flush() != nil {
				t.Fatal("writing the recorded HELLO")
			}
			spliced.Write(up[hello.size():])
			srv, _ := scenarios[tw.twin].setup(t)
			if got := replay(t, spliced.Bytes(), srv.ServeContext); !bytes.Equal(got, down) {
				t.Fatalf("the server answered the multiplexing HELLO with %d bytes, today's with %d", len(got), len(down))
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
