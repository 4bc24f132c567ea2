package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"msync/internal/alloctest"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/filelist"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// tableTrees is a flat collection of n small files, spread over a hundred
// directories like the benchmark's tiny_flat, and its next version: edited
// files of it grown by a line, two deleted, two renamed and two added. At
// 2 000 files its MANIFEST_SHORT is past tableMin.
func tableTrees(n, edited int) (v1, v2 map[string][]byte) {
	rng := rand.New(rand.NewSource(int64(n*1000 + edited)))
	v1, v2 = make(map[string][]byte, n), make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("t/d%02d/f%05d.txt", i%100, i)
		data := corpus.SourceText(rng, 200+rng.Intn(400))
		v1[path], v2[path] = data, data
	}
	step := n / max(edited, 1)
	for k := 0; k < edited; k++ {
		path := fmt.Sprintf("t/d%02d/f%05d.txt", k*step%100, k*step)
		v2[path] = append(append([]byte{}, v1[path]...), "one more line\n"...)
	}
	for k := 1; k <= 2; k++ {
		gone, moved := fmt.Sprintf("t/d%02d/f%05d.txt", (n-k)%100, n-k), fmt.Sprintf("t/d%02d/f%05d.txt", (n-2-k)%100, n-2-k)
		delete(v2, gone)
		v2[fmt.Sprintf("t/moved/f%05d.txt", k)] = v2[moved]
		delete(v2, moved)
		v2[fmt.Sprintf("t/added/n%05d.txt", k)] = corpus.SourceText(rng, 300)
	}
	return v1, v2
}

// tableSession runs one pull of srv by cli over a recorded pipe: what went
// each way, both ends' costs, the client's result and spans.
func tableSession(t *testing.T, srv *Server, cli *Client) (c2s, s2c []wireFrame, sc *stats.Costs, res *Result, ring *obs.Ring) {
	t.Helper()
	ring = obs.NewRing(1024)
	cli.Tracer = ring
	a, b := transport.Pipe()
	rec := &recordConn{rw: b}
	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		defer a.Close()
		sc, serverErr = srv.Serve(a)
	}()
	res, err := cli.Sync(rec)
	b.Close()
	wg.Wait()
	if err != nil || serverErr != nil {
		t.Fatalf("client: %v, server: %v", err, serverErr)
	}
	return transcriptFrames(t, rec.c2s.Bytes()), transcriptFrames(t, rec.s2c.Bytes()), sc, res, ring
}

// replayHolder feeds the receiver's frames to a fresh server over v2 and
// returns the frames it answers with and its costs.
func replayHolder(t *testing.T, v2 map[string][]byte, width int, c2s []wireFrame) ([]wireFrame, *stats.Costs) {
	t.Helper()
	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.MuxStreams = width
	conn := &recordingScript{}
	conn.script.Reset(wireBytes(t, c2s))
	sc, err := srv.Serve(conn)
	if err != nil {
		t.Fatalf("replayed receiver: %v", err)
	}
	return transcriptFrames(t, conn.out.Bytes()), sc
}

// shortFrame is the MANIFEST_SHORT of the list of files.
func shortFrame(files map[string][]byte) wireFrame {
	short, _ := packManifest(BuildManifest(files), shortSum)
	return wireFrame{wire.FrameManifestShort, short}
}

// framesExcept is frames without the k-th.
func framesExcept(frames []wireFrame, k int) []wireFrame {
	return append(append([]wireFrame{}, frames[:k]...), frames[k+1:]...)
}

// TestTableAnswerIsTheShortAnswer: a receiver whose MANIFEST_SHORT is past
// tableMin sends its list as MANIFEST_TABLE, at most half as long, in the same
// flight, and converges — pulling lazily or not, over one stream or sixteen.
// The holder's VERDICTS name only the differing files and end with its list
// digest; everything else it sends is what it sends a receiver that sent
// MANIFEST_SHORT — the same receiver frames, with the table swapped for the
// short list, replayed to it — in as many roundtrips.
func TestTableAnswerIsTheShortAnswer(t *testing.T) {
	v1, v2 := tableTrees(2000, 30)
	short := shortFrame(v1)
	if len(short.payload) < tableMin {
		t.Fatalf("the MANIFEST_SHORT of tableTrees(2000) is %d bytes, under %d", len(short.payload), tableMin)
	}
	for _, width := range []int{0, 16} {
		for _, lazy := range []bool{false, true} {
			srv, err := NewServer(v2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = width
			cli := NewClientSource(MapSource(v1))
			cli.MuxStreams, cli.LazyResult = width, lazy
			c2s, s2c, sc, res, _ := tableSession(t, srv, cli)
			if c2s[1].typ != wire.FrameManifestTable || len(c2s[1].payload) > len(short.payload)/2 {
				t.Fatalf("width %d: the list went as %s of %d bytes, want MANIFEST_TABLE of at most %d", width, wire.FrameName(c2s[1].typ), len(c2s[1].payload), len(short.payload)/2)
			}
			got := res.Files
			if lazy {
				got = make(map[string][]byte, len(v2))
				for p, data := range res.Files {
					got[p] = data
				}
				for _, p := range res.Unchanged {
					got[p] = v1[p]
				}
			}
			if err := VerifyAgainst(got, v2); err != nil {
				t.Fatalf("width %d, lazy %v: %v", width, lazy, err)
			}
			if res.Costs.FilesUnchanged != sc.FilesUnchanged || res.Costs.FilesUnchanged != len(v1)-34 || res.Costs.Total() != sc.Total() {
				t.Fatalf("unchanged: client %d, server %d, want %d; totals %d and %d", res.Costs.FilesUnchanged, sc.FilesUnchanged, len(v1)-34, res.Costs.Total(), sc.Total())
			}

			replayed := append([]wireFrame{c2s[0], short}, c2s[2:]...)
			answer, rc := replayHolder(t, v2, width, replayed)
			if len(answer) != len(s2c) || rc.Roundtrips != sc.Roundtrips {
				t.Fatalf("width %d: %d frames in %d roundtrips answer the table, %d in %d the short list", width, len(s2c), sc.Roundtrips, len(answer), rc.Roundtrips)
			}
			for k := range answer {
				if answer[k].typ == wire.FrameVerdicts {
					// 34 named files of 8-byte names and the digest, against
					// 2 000 verdicts and 31 group sums.
					if len(s2c[k].payload) >= len(answer[k].payload)-1000 {
						t.Fatalf("VERDICTS of %d bytes answer the table, %d the short list", len(s2c[k].payload), len(answer[k].payload))
					}
					continue
				}
				if answer[k].typ != s2c[k].typ || !bytes.Equal(answer[k].payload, s2c[k].payload) {
					t.Fatalf("width %d: frame %d is %s answering the table, %s answering the short list", width, k, wire.FrameName(s2c[k].typ), wire.FrameName(answer[k].typ))
				}
			}
		}
	}
}

// TestTablePush: a server taking a push sends its long list as a table too,
// and adopts exactly the pusher's collection.
func TestTablePush(t *testing.T) {
	v1, v2 := tableTrees(2000, 30)
	pusher, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewServer(v1, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, fromReceiver := pushRecorded(t, pusher, receiver)
	if f := transcriptFrames(t, fromReceiver); f[0].typ != wire.FrameManifestTable {
		t.Fatalf("the receiving server sent its list as %s", wire.FrameName(f[0].typ))
	}
	if got, err := receiver.source().Manifest(); err != nil || !slices.Equal(got, BuildManifest(v2)) {
		t.Fatalf("the receiving server adopted %d files (%v), want the pusher's %d", len(got), err, len(v2))
	}
}

// TestTablePeelFailureFallsBack: a table with room for 2 % of 2 000 files
// changed — forty — against 300 changed files does not peel. The holder asks
// with MANIFEST_WANT, the receiver answers with MANIFEST_SHORT, never a second
// table, and the session converges: exactly the session of a receiver that
// sent MANIFEST_SHORT at once, byte for byte past the WANT, and one roundtrip
// more. Both ends count the failed peel; the receiver notes it once.
func TestTablePeelFailureFallsBack(t *testing.T) {
	v1, v2 := tableTrees(2000, 300)
	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2s, s2c, sc, res, ring := tableSession(t, srv, NewClient(v1))
	if err := VerifyAgainst(res.Files, v2); err != nil {
		t.Fatal(err)
	}
	if c2s[1].typ != wire.FrameManifestTable || c2s[2].typ != wire.FrameManifestShort || s2c[0].typ != wire.FrameManifestWant {
		t.Fatalf("up %s, %s; down %s: want MANIFEST_TABLE, MANIFEST_SHORT; MANIFEST_WANT",
			wire.FrameName(c2s[1].typ), wire.FrameName(c2s[2].typ), wire.FrameName(s2c[0].typ))
	}
	if sc.TablePeelsFailed != 1 || res.Costs.TablePeelsFailed != 1 {
		t.Fatalf("failed peels: server %d, client %d", sc.TablePeelsFailed, res.Costs.TablePeelsFailed)
	}
	noted := 0
	for _, e := range ring.Events() {
		noted += strings.Count(e.Note, "table_peel_failed")
	}
	if noted != 1 {
		t.Fatalf("the receiver noted the failed peel %d times", noted)
	}
	answer, rc := replayHolder(t, v2, 0, framesExcept(c2s, 1))
	if !bytes.Equal(wireBytes(t, answer), wireBytes(t, s2c[1:])) {
		t.Fatal("past the WANT, the holder's answer is not its answer to MANIFEST_SHORT sent at once")
	}
	if sc.Roundtrips != rc.Roundtrips+1 || res.Costs.Roundtrips != sc.Roundtrips {
		t.Fatalf("roundtrips: %d (client %d) after the failed peel, %d for MANIFEST_SHORT at once", sc.Roundtrips, res.Costs.Roundtrips, rc.Roundtrips)
	}
}

// forgeDigest flips a bit of the list digest that ends a VERDICTS frame
// answering a MANIFEST_TABLE (no version follows it).
func forgeDigest(real []byte) []byte {
	out := bytes.Clone(real)
	out[len(out)-md4.Size] ^= 1
	return out
}

// TestForgedListDigestFails: VERDICTS whose list digest is not the one the
// receiver's list has once the session is applied fail the session with
// ErrListMismatch, and the receiver returns no result, so nothing of it is
// applied — under either framing, lazy or not. The holder's side completes.
func TestForgedListDigestFails(t *testing.T) {
	v1, v2 := tableTrees(2000, 30)
	for _, width := range []int{0, 4} {
		for _, lazy := range []bool{false, true} {
			srv, err := NewServer(v2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = width
			cli := NewClientSource(MapSource(v1))
			cli.MuxStreams, cli.LazyResult = width, lazy
			tp := newTamperProxy(false, wire.FrameVerdicts, 0, nil)
			tp.rewrite = forgeDigest
			_, res, serverErr, clientErr := tp.run(t, srv, cli.Sync)
			if !errors.Is(clientErr, ErrListMismatch) || !errors.Is(clientErr, core.ErrProtocol) || res != nil || serverErr != nil {
				t.Fatalf("width %d, lazy %v: client %v with result %v, server %v: want ErrListMismatch and no result", width, lazy, clientErr, res, serverErr)
			}
		}
	}
}

// TestHostileTablesRefused: a MANIFEST_TABLE no receiver sends — a cell count
// its bytes cannot hold, not a multiple of the hash count, zero, bytes after
// its cells — is core.ErrProtocol from the holder before it allocates a cell:
// a table declaring 2²⁶ cells in 42 bytes costs it less than 64 KB. A table
// after a MANIFEST_WANT, and a second MANIFEST_WANT, are refused as frames
// out of place.
func TestHostileTablesRefused(t *testing.T) {
	v1, v2 := tinyTrees(12)
	table := func(cells uint64, extra int) []byte {
		b := wire.NewBuffer(64)
		b.Uvarint(cells)
		b.Raw(make([]byte, extra))
		return b.Build()
	}
	valid := func() []byte {
		b := wire.NewBuffer(256)
		filelist.NewTable(8).Append(b)
		return b.Build()
	}()
	hostile := map[string][]byte{
		"2^26 cells in 42 bytes": table(1<<26, 38),
		"cells past their bytes": table(8, 8*19-1),
		"cells not a multiple":   table(6, 6*19),
		"no cells":               table(0, 19),
		"bytes after the cells":  append(valid, 0),
	}
	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2s, _ := runRecorded(t, srv, NewClient(v1))
	frames := transcriptFrames(t, c2s)[:2] // HELLO, the list
	for name, payload := range hostile {
		frames[1] = wireFrame{wire.FrameManifestTable, payload}
		script := wireBytes(t, frames)
		conn := &scriptConn{}
		var err error
		got := alloctest.BytesPerOp(16, func() { // sixteen: see hostileHandshakes
			conn.script.Reset(script)
			_, err = srv.Serve(conn)
		})
		if !errors.Is(err, core.ErrProtocol) {
			t.Errorf("%s: %v, want core.ErrProtocol", name, err)
		} else if got >= 64<<10 {
			t.Errorf("%s: refusing it cost %d B, ceiling %d", name, got, 64<<10)
		}
	}

	// Out of place: a table answering MANIFEST_WANT (after a table the holder
	// could not peel), and a second MANIFEST_WANT to the receiver.
	w1, w2 := tableTrees(2000, 300)
	big, err := NewServer(w2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	up, down := runRecorded(t, big, NewClient(w1))
	upFrames, downFrames := transcriptFrames(t, up), transcriptFrames(t, down)
	upFrames[2] = upFrames[1] // the table again, where MANIFEST_SHORT went
	if _, err := big.Serve(&scriptConn{script: *bytes.NewReader(wireBytes(t, upFrames[:3]))}); !errors.Is(err, core.ErrProtocol) {
		t.Errorf("a table answering MANIFEST_WANT: %v, want core.ErrProtocol", err)
	}
	twice := append([]wireFrame{downFrames[0]}, downFrames...)
	if _, err := NewClient(w1).Sync(&scriptConn{script: *bytes.NewReader(wireBytes(t, twice))}); !errors.Is(err, core.ErrProtocol) {
		t.Errorf("a second MANIFEST_WANT: %v, want core.ErrProtocol", err)
	}
}
