package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

func TestMuxPartition(t *testing.T) {
	mk := func(sizes ...int) []syncFile {
		out := make([]syncFile, len(sizes))
		for i, n := range sizes {
			out[i] = syncFile{data: make([]byte, n)}
		}
		return out
	}
	if got := muxPartition(nil, 8); got != nil {
		t.Fatalf("no files: got %v", got)
	}
	if got := muxPartition(mk(10, 10), 0); got != nil {
		t.Fatalf("width 0: got %v", got)
	}

	check := func(name string, files []syncFile, width, wantStreams int) []int {
		t.Helper()
		counts := muxPartition(files, width)
		if len(counts) != wantStreams {
			t.Fatalf("%s: %d streams, want %d", name, len(counts), wantStreams)
		}
		sum := 0
		for k, c := range counts {
			if c < 1 {
				t.Fatalf("%s: stream %d got %d files", name, k, c)
			}
			sum += c
		}
		if sum != len(files) {
			t.Fatalf("%s: partition covers %d of %d files", name, sum, len(files))
		}
		return counts
	}

	even := make([]int, 10)
	for i := range even {
		even[i] = 100
	}
	counts := check("even", mk(even...), 4, 4)
	for k, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("even: stream %d got %d files, want 2-3: %v", k, c, counts)
		}
	}
	check("width over files", mk(1, 2, 3), 16, 3)

	many := make([]int, 300)
	for i := range many {
		many[i] = 10
	}
	check("session cap", mk(many...), 200, muxSessionCap)

	// One dominating file must not drag small files into its stream.
	skew := append([]int{1 << 20}, make([]int, 9)...)
	for i := 1; i < len(skew); i++ {
		skew[i] = 1
	}
	counts = check("skew", mk(skew...), 4, 4)
	if counts[0] != 1 {
		t.Fatalf("skew: huge file shares stream 0 with %d others: %v", counts[0]-1, counts)
	}
}

// muxSession runs one sync over a pipe with both sides opted in to `width`
// multiplexed streams and `workers`-wide parallelism; tune may adjust either
// side before the session starts.
func muxSession(t *testing.T, serverFiles, clientFiles map[string][]byte, cfg core.Config, width, workers int, tune func(*Server, *Client)) (*Result, *stats.Costs) {
	t.Helper()
	cfg.Workers = workers
	srv, err := NewServer(serverFiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.MuxStreams = width
	cli := NewClient(clientFiles)
	cli.MuxStreams = width
	cli.Workers = workers
	if tune != nil {
		tune(srv, cli)
	}
	a, b := transport.Pipe()
	var serverCosts *stats.Costs
	var serverErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.Serve(a)
	}()
	res, err := cli.Sync(b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	return res, serverCosts
}

// streamSpans counts the per-stream summary spans a ring tracer captured.
func streamSpans(r *obs.Ring) int {
	n := 0
	for _, e := range r.Events() {
		if e.Phase == obs.PhaseStream {
			n++
		}
	}
	return n
}

// TestMuxMatrixDeterminism: multiplexed sessions converge at every stream
// width, both sides account identical costs, and for a fixed width the wire
// costs are bit-identical for every worker count — parallelism is purely an
// execution knob under multiplexing too. What a slow link pays for is
// roundtrips: no width needs more of them than the lockstep session, which
// itself needs fewer than one session per changed file would.
func TestMuxMatrixDeterminism(t *testing.T) {
	pool.SetParallelism(8)
	defer pool.SetParallelism(0)
	v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
	want := v2.Map()
	_, lockstep := muxSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), 0, 1, nil)
	perFile, changed := 0, 0
	old := v1.Map()
	for path, data := range want {
		if prev, ok := old[path]; ok && !bytes.Equal(prev, data) {
			_, c := muxSession(t, map[string][]byte{path: data}, map[string][]byte{path: prev}, core.DefaultConfig(), 0, 1, nil)
			perFile += c.Roundtrips
			changed++
		}
	}
	if changed < 2 || perFile <= lockstep.Roundtrips {
		t.Fatalf("%d changed files: %d roundtrips in sessions of their own, %d sharing one", changed, perFile, lockstep.Roundtrips)
	}
	for _, width := range []int{1, 4, 16} {
		var base *stats.Costs
		for _, workers := range []int{1, 8} {
			ring := obs.NewRing(8192)
			res, serverCosts := muxSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), width, workers,
				func(s *Server, c *Client) { s.Tracer = ring })
			if err := VerifyAgainst(res.Files, want); err != nil {
				t.Fatalf("width=%d workers=%d: %v", width, workers, err)
			}
			if streamSpans(ring) == 0 {
				t.Fatalf("width=%d workers=%d: no stream spans — mux path not taken", width, workers)
			}
			if res.Costs.Total() != serverCosts.Total() {
				t.Fatalf("width=%d workers=%d: client total %d != server total %d",
					width, workers, res.Costs.Total(), serverCosts.Total())
			}
			for _, d := range []stats.Direction{stats.C2S, stats.S2C} {
				if res.Costs.DirTotal(d) != serverCosts.DirTotal(d) {
					t.Fatalf("width=%d workers=%d: direction %v disagrees: %d vs %d",
						width, workers, d, res.Costs.DirTotal(d), serverCosts.DirTotal(d))
				}
			}
			if res.Costs.Roundtrips != serverCosts.Roundtrips {
				t.Fatalf("width=%d workers=%d: roundtrips disagree: %d vs %d",
					width, workers, res.Costs.Roundtrips, serverCosts.Roundtrips)
			}
			if serverCosts.Roundtrips > lockstep.Roundtrips {
				t.Fatalf("width=%d workers=%d: %d roundtrips, lockstep %d",
					width, workers, serverCosts.Roundtrips, lockstep.Roundtrips)
			}
			if base == nil {
				base = serverCosts
				continue
			}
			if serverCosts.Total() != base.Total() ||
				serverCosts.DirTotal(stats.C2S) != base.DirTotal(stats.C2S) ||
				serverCosts.DirTotal(stats.S2C) != base.DirTotal(stats.S2C) ||
				serverCosts.Roundtrips != base.Roundtrips {
				t.Fatalf("width=%d: workers=%d changed the wire: total %d/%d roundtrips %d/%d",
					width, workers, serverCosts.Total(), base.Total(),
					serverCosts.Roundtrips, base.Roundtrips)
			}
		}
	}
}

// TestMuxSpansSumToCosts: with per-stream cost accounting running
// concurrently, the emitted spans of a multiplexed session still sum exactly
// to the session's Costs wire totals on both sides, and the per-stream spans
// carry their 1-based stream ids. Run under -race this also pins down that
// the concurrent handlers never share an accumulator.
func TestMuxSpansSumToCosts(t *testing.T) {
	pool.SetParallelism(8)
	defer pool.SetParallelism(0)
	v1, v2 := corpus.GCCProfile(0.05).Generate(8)
	srvRing := obs.NewRing(8192)
	cliRing := obs.NewRing(8192)
	res, serverCosts := muxSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), 8, 8,
		func(s *Server, c *Client) {
			s.Tracer = srvRing
			c.Tracer = cliRing
		})
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name  string
		ring  *obs.Ring
		costs *stats.Costs
	}{
		{"server", srvRing, serverCosts},
		{"client", cliRing, res.Costs},
	} {
		var up, down int64
		streams := 0
		for _, e := range side.ring.Events() {
			if e.Phase == obs.PhaseSession {
				continue
			}
			up += e.BytesUp
			down += e.BytesDown
			if e.Phase == obs.PhaseStream {
				streams++
				if e.Stream < 1 {
					t.Fatalf("%s: stream span without stream id: %+v", side.name, e)
				}
			} else if e.Stream != 0 {
				t.Fatalf("%s: non-stream span tagged with stream %d", side.name, e.Stream)
			}
		}
		if streams == 0 {
			t.Fatalf("%s: no stream spans emitted", side.name)
		}
		if up != side.costs.DirTotal(stats.C2S) {
			t.Fatalf("%s: span bytes up %d != costs C2S %d", side.name, up, side.costs.DirTotal(stats.C2S))
		}
		if down != side.costs.DirTotal(stats.S2C) {
			t.Fatalf("%s: span bytes down %d != costs S2C %d", side.name, down, side.costs.DirTotal(stats.S2C))
		}
	}
}

// tinyTrees builds n small-but-mappable changed files: the corpus for the
// round-batching and metrics assertions.
func tinyTrees(n int) (v1, v2 map[string][]byte) {
	rng := rand.New(rand.NewSource(42))
	v1 = make(map[string][]byte, n)
	v2 = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("dir/f%03d.txt", i)
		old := corpus.SourceText(rng, 3000+rng.Intn(2000))
		edited := append(append([]byte{}, old[:500]...), old[700:]...)
		edited = append(edited, corpus.SourceText(rng, 200)...)
		v1[path] = old
		v2[path] = edited
	}
	return v1, v2
}

// TestMuxMetrics: many tiny files across streams batch their rounds into
// shared cycles (the batched-rounds counter moves) and the active-streams
// gauge returns to zero once the session closed every stream.
func TestMuxMetrics(t *testing.T) {
	v1, v2 := tinyTrees(24)
	reg := obs.NewRegistry()
	res, _ := muxSession(t, v2, v1, core.DefaultConfig(), 8, 1,
		func(s *Server, c *Client) { s.Metrics = reg })
	if err := VerifyAgainst(res.Files, v2); err != nil {
		t.Fatal(err)
	}
	if g := reg.Gauge(obs.MetricStreamsActive).Value(); g != 0 {
		t.Fatalf("streams-active gauge = %d after session end", g)
	}
	if c := reg.Counter(obs.MetricRoundsBatched).Value(); c == 0 {
		t.Fatal("no batched rounds counted across 8 streams of tiny files")
	}
}

// muxByteProbe measures the exact wire bytes one side of a clean multiplexed
// session writes, so fault triggers can be planted near the end of the
// session — deep inside the stream phase.
func muxByteProbe(t *testing.T, serverFiles, clientFiles map[string][]byte, width int) (server, client int) {
	t.Helper()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.MuxStreams = width
	cli := NewClient(clientFiles)
	cli.MuxStreams = width
	a, b := transport.Pipe()
	sp := transport.NewFaultConn(a) // no faults armed: pure byte counters
	cp := transport.NewFaultConn(b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		if _, err := srv.Serve(sp); err != nil {
			t.Errorf("probe server: %v", err)
		}
	}()
	if _, err := cli.Sync(cp); err != nil {
		t.Fatalf("probe client: %v", err)
	}
	b.Close()
	wg.Wait()
	return sp.Written(), cp.Written()
}

// TestMuxSevered: the link dies inside the last flush of the server's stream
// cycles. Both sides must return errors promptly — no hang, no partial
// success — and the serving goroutine must be reaped.
func TestMuxSevered(t *testing.T) {
	v1, v2 := tinyTrees(12)
	serverBytes, _ := muxByteProbe(t, v2, v1, 8)

	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.MuxStreams = 8
	cli := NewClient(v1)
	cli.MuxStreams = 8
	a, b := transport.Pipe()
	faulty := transport.NewFaultConn(a).SeverAfter(serverBytes - 10)
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(faulty)
		srvDone <- err
	}()
	cliDone := make(chan error, 1)
	go func() {
		_, err := cli.Sync(b)
		cliDone <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-cliDone:
			if err == nil {
				t.Fatal("client succeeded over a severed multiplexed session")
			}
		case err := <-srvDone:
			if err == nil {
				t.Fatal("server succeeded over a severed multiplexed session")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("severed multiplexed session hung")
		}
	}
}

// TestMuxStalledClient: a client that silently stops sending mid-stream
// (writes dropped inside its final reply cycle) fails the serving session via
// the per-cycle round deadline instead of pinning it forever, and the error
// names the round, not the handshake.
func TestMuxStalledClient(t *testing.T) {
	v1, v2 := tinyTrees(12)
	_, clientBytes := muxByteProbe(t, v2, v1, 8)

	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.MuxStreams = 8
	srv.RoundTimeout = 150 * time.Millisecond
	cli := NewClient(v1)
	cli.MuxStreams = 8
	a, b := transport.Pipe()
	faulty := transport.NewFaultConn(b).DropAfter(clientBytes - 10)
	srvDone := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := srv.Serve(a)
		a.Close() // reaps the abandoned client
		srvDone <- err
	}()
	cliDone := make(chan error, 1)
	go func() {
		_, err := cli.Sync(faulty)
		cliDone <- err
	}()
	select {
	case err := <-srvDone:
		if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "transport: round deadline exceeded") {
			t.Fatalf("want the round deadline from the stalled stream, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never noticed the stalled stream")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("server needed %v to fail the stalled session", el)
	}
	select {
	case <-cliDone:
	case <-time.After(10 * time.Second):
		t.Fatal("client goroutine leaked after the server gave up")
	}
}

// TestMuxJournalInterop: multiplexing and version announcement compose. A
// journal hit bypasses map construction entirely, so the mux request is
// ignored (no MUX_ACK — the session keeps the legacy shape); a journal miss
// falls back to map rounds and multiplexes them.
func TestMuxJournalInterop(t *testing.T) {
	tree1, tree2 := versionedTrees()

	// Hit: announced version is served from the journal; no streams.
	srv := versionedServer(t, tree1, tree2, core.DefaultConfig())
	srv.MuxStreams = 16
	ring := obs.NewRing(1024)
	srv.Tracer = ring
	cli := NewClient(tree1)
	cli.MuxStreams = 16
	cli.AnnounceVersion = true
	cli.BaseVersion = 1
	res, serverCosts := runVersioned(t, srv, cli)
	if serverCosts.JournalHits != 1 || serverCosts.JournalMisses != 0 {
		t.Fatalf("journal hits/misses = %d/%d, want 1/0", serverCosts.JournalHits, serverCosts.JournalMisses)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
	if n := streamSpans(ring); n != 0 {
		t.Fatalf("journal hit opened %d mux streams", n)
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("client total %d != server total %d", res.Costs.Total(), serverCosts.Total())
	}

	// Miss: unknown base version falls back to map rounds, multiplexed.
	srv = versionedServer(t, tree1, tree2, core.DefaultConfig())
	srv.MuxStreams = 16
	ring = obs.NewRing(1024)
	srv.Tracer = ring
	cli = NewClient(tree1)
	cli.MuxStreams = 16
	cli.AnnounceVersion = true
	cli.BaseVersion = 99
	res, serverCosts = runVersioned(t, srv, cli)
	if serverCosts.JournalMisses != 1 {
		t.Fatalf("journal misses = %d, want 1", serverCosts.JournalMisses)
	}
	if err := VerifyAgainst(res.Files, tree2); err != nil {
		t.Fatal(err)
	}
	if n := streamSpans(ring); n == 0 {
		t.Fatal("journal miss did not multiplex the fallback map rounds")
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("client total %d != server total %d", res.Costs.Total(), serverCosts.Total())
	}
}

// TestMuxRefused: a server with multiplexing disabled ignores the request and
// the session runs the legacy lockstep protocol — converged, costs agreed,
// no stream spans.
func TestMuxRefused(t *testing.T) {
	v1, v2 := corpus.EmacsProfile(0.05).Generate(3)
	ring := obs.NewRing(4096)
	res, serverCosts := muxSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), 16, 1,
		func(s *Server, c *Client) {
			s.MuxStreams = 0
			s.Tracer = ring
		})
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	if n := streamSpans(ring); n != 0 {
		t.Fatalf("refusing server still opened %d streams", n)
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("client total %d != server total %d", res.Costs.Total(), serverCosts.Total())
	}
	if res.Costs.Roundtrips != serverCosts.Roundtrips {
		t.Fatalf("roundtrips disagree: %d vs %d", res.Costs.Roundtrips, serverCosts.Roundtrips)
	}
}

// innerFrames strips the stream wrapping from one direction of a width-1
// multiplexed transcript: CYCLE frames are dropped and every STREAM frame is
// replaced by the frame it carries.
func innerFrames(t *testing.T, frames []wireFrame) []wireFrame {
	t.Helper()
	var out []wireFrame
	for _, f := range frames {
		switch f.typ {
		case wire.FrameCycle:
		case wire.FrameStream:
			sf, err := wire.ParseStreamFrame(f.payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, wireFrame{sf.Type, sf.Payload})
		default:
			out = append(out, f)
		}
	}
	return out
}

// TestMuxWidthOneEqualsLockstep: a multiplexed session is the lockstep session
// in a wrapper. With one granted stream, unwrapping the recorded transcript
// leaves exactly the lockstep transcript of the same trees from the verdict
// frame onward — every ROUND_HASHES, ROUND_REPLY, CONFIRM, DELTA, ACK and FULL
// byte for byte, in order. The scheduler's two framings stand on this.
func TestMuxWidthOneEqualsLockstep(t *testing.T) {
	emacs1, emacs2 := corpus.EmacsProfile(0.08).Generate(5)
	tiny1, tiny2 := tinyTrees(12)
	for _, tc := range []struct {
		name   string
		v1, v2 map[string][]byte
		cfg    core.Config
	}{
		{"clean", emacs1.Map(), emacs2.Map(), core.DefaultConfig()},
		{"fallback", tiny1, tiny2, weakConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			record := func(width int) (c2s, s2c []wireFrame) {
				srv, err := NewServer(tc.v2, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv.MuxStreams = width
				cli := NewClient(tc.v1)
				cli.MuxStreams = width
				up, down := runRecorded(t, srv, cli)
				return transcriptFrames(t, up), transcriptFrames(t, down)
			}
			lockUp, lockDown := record(0)
			muxUp, muxDown := record(1)

			// Past the handshake: HELLO and MANIFEST go up, (MUX_ACK and)
			// VERDICTS come down.
			if muxDown[0].typ != wire.FrameMuxAck {
				t.Fatalf("width-1 session opened with %s, not MUX_ACK", wire.FrameName(muxDown[0].typ))
			}
			muxUp, muxDown = innerFrames(t, muxUp[2:]), innerFrames(t, muxDown[1:])
			lockUp = lockUp[2:]
			for _, dir := range []struct {
				name      string
				mux, lock []wireFrame
			}{{"c2s", muxUp, lockUp}, {"s2c", muxDown, lockDown}} {
				if len(dir.mux) != len(dir.lock) {
					t.Fatalf("%s: %d inner frames, lockstep sent %d", dir.name, len(dir.mux), len(dir.lock))
				}
				for i := range dir.mux {
					if dir.mux[i].typ != dir.lock[i].typ || !bytes.Equal(dir.mux[i].payload, dir.lock[i].payload) {
						t.Fatalf("%s frame %d: unwrapped %s (%d bytes) differs from lockstep %s (%d bytes)", dir.name, i,
							wire.FrameName(dir.mux[i].typ), len(dir.mux[i].payload),
							wire.FrameName(dir.lock[i].typ), len(dir.lock[i].payload))
					}
				}
			}
			if tc.name == "fallback" && lockDown[len(lockDown)-1].typ != wire.FrameFull {
				t.Fatal("the fallback session did not end in a FULL frame")
			}
		})
	}
}
