package collection

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// pipeSession runs one sync over a pipe with both sides at `workers`-wide
// parallelism; tune may adjust either side before the session starts.
func pipeSession(t *testing.T, serverFiles, clientFiles map[string][]byte, cfg core.Config, workers int, tune func(*Server, *Client)) (*Result, *stats.Costs) {
	t.Helper()
	cfg.Workers = workers
	srv, err := NewServer(serverFiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(clientFiles)
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

// withMuxExt returns hello, a HELLO payload, asking besides for the retired
// stream multiplexing at width: extension 2 inserted in id order, as a client
// from before its retirement sent it.
func withMuxExt(hello []byte, width int) []byte {
	type ext struct {
		id uint64
		v  []byte
	}
	p := wire.NewParser(hello)
	p.Uvarint() // protocol version
	p.Raw(2)    // role, mode
	head := hello[:len(hello)-p.Remaining()]
	exts := []ext{{2, wire.AppendUvarint(nil, uint64(width))}}
	n, _ := p.Uvarint() // 0 without a trailer
	for range n {
		id, _ := p.Uvarint()
		v, _ := p.Bytes()
		exts = append(exts, ext{id, v})
	}
	slices.SortStableFunc(exts, func(a, b ext) int { return cmp.Compare(a.id, b.id) })
	b := wire.NewBuffer(len(hello) + 8)
	b.Raw(head)
	b.Uvarint(uint64(len(exts)))
	for _, e := range exts {
		b.Uvarint(e.id)
		b.Bytes(e.v)
	}
	return b.Build()
}

// muxHelloConn is a client's connection whose first write, which opens with
// the HELLO frame, goes out with the HELLO asking for the retired stream
// multiplexing too (withMuxExt): the session a server has with a client from
// before the retirement. added is what that cost on the wire, which the
// client does not account and the server does.
type muxHelloConn struct {
	io.ReadWriter
	width int
	sent  bool
	added int
}

func (c *muxHelloConn) Write(p []byte) (int, error) {
	if c.sent {
		return c.ReadWriter.Write(p)
	}
	c.sent = true
	fp := wire.NewParser(p)
	typ, err1 := fp.Byte()
	hello, err2 := fp.Bytes()
	if err := cmp.Or(err1, err2); err != nil || typ != wire.FrameHello {
		return 0, fmt.Errorf("the first write is not a whole HELLO frame (%v)", err)
	}
	b := wire.NewBuffer(len(p) + 8)
	b.Byte(wire.FrameHello)
	b.Bytes(withMuxExt(hello, c.width))
	b.Raw(p[len(p)-fp.Remaining():])
	out := b.Build()
	c.added = len(out) - len(p)
	if _, err := c.ReadWriter.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestChangedFilesShareRoundtrips: every changed file rides in the session's
// one lockstep stream, so the session needs fewer roundtrips than one session
// per changed file would — at one worker and at eight, with both ends
// agreeing on every byte and roundtrip. (Convergence and byte identity over
// worker counts are TestCollectionWireDeterminism's.)
func TestChangedFilesShareRoundtrips(t *testing.T) {
	v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
	want, old := v2.Map(), v1.Map()
	perFile, changed := 0, 0
	for path, data := range want {
		if prev, ok := old[path]; ok && !bytes.Equal(prev, data) {
			_, c := pipeSession(t, map[string][]byte{path: data}, map[string][]byte{path: prev}, core.DefaultConfig(), 1, nil)
			perFile += c.Roundtrips
			changed++
		}
	}
	for _, workers := range []int{1, 8} {
		res, serverCosts := pipeSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), workers, nil)
		if err := VerifyAgainst(res.Files, want); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, d := range []stats.Direction{stats.C2S, stats.S2C} {
			if res.Costs.DirTotal(d) != serverCosts.DirTotal(d) {
				t.Fatalf("workers=%d: direction %v disagrees: %d vs %d", workers, d, res.Costs.DirTotal(d), serverCosts.DirTotal(d))
			}
		}
		if res.Costs.Roundtrips != serverCosts.Roundtrips {
			t.Fatalf("workers=%d: roundtrips disagree: %d vs %d", workers, res.Costs.Roundtrips, serverCosts.Roundtrips)
		}
		if changed < 2 || perFile <= serverCosts.Roundtrips {
			t.Fatalf("workers=%d: %d changed files: %d roundtrips in sessions of their own, %d sharing one", workers, changed, perFile, serverCosts.Roundtrips)
		}
	}
}

// tinyTrees builds n small-but-mappable changed files: the corpus for the
// fallback, hostile-frame and stall tests.
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

// clientBytes measures the exact wire bytes the client of a clean session
// writes, so a fault can be planted inside its last reply.
func clientBytes(t *testing.T, serverFiles, clientFiles map[string][]byte) int {
	t.Helper()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(clientFiles)
	a, b := transport.Pipe()
	cp := transport.NewFaultConn(b) // no faults armed: a pure byte counter
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		if _, err := srv.Serve(a); err != nil {
			t.Errorf("probe server: %v", err)
		}
	}()
	if _, err := cli.Sync(cp); err != nil {
		t.Fatalf("probe client: %v", err)
	}
	b.Close()
	wg.Wait()
	return cp.Written()
}

// TestStalledClientRoundDeadline: a client that silently stops sending at the
// end of the session (writes dropped from ten bytes before its last) fails
// the serving session through the server's round timeout instead of pinning
// it forever, and the error names the round, not the handshake.
func TestStalledClientRoundDeadline(t *testing.T) {
	v1, v2 := tinyTrees(12)
	written := clientBytes(t, v2, v1)

	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.RoundTimeout = 150 * time.Millisecond
	cli := NewClient(v1)
	a, b := transport.Pipe()
	faulty := transport.NewFaultConn(b).DropAfter(written - 10)
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
		if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "transport: round timeout") {
			t.Fatalf("want the round timeout from the stalled reply, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never noticed the stalled reply")
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
