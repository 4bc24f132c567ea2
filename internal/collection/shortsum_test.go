package collection

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// collisionTrees is a receiver's collection and the holder's next version:
// 150 files of 300–600 bytes (three sum groups), of which "f070.txt" keeps its
// length but not its bytes — the file a forged MANIFEST_SHORT passes as
// unchanged. With engines, every tenth other file also grows by a line, so
// the session maps some files beside the salvage.
func collisionTrees(engines bool) (old, cur map[string][]byte) {
	old, cur = map[string][]byte{}, map[string][]byte{}
	for i := 0; i < 150; i++ {
		path := fmt.Sprintf("f%03d.txt", i)
		data := []byte(strings.Repeat(fmt.Sprintf("line %d of a small file\n", i), 12+i%13))
		old[path], cur[path] = data, data
		if engines && i%10 == 5 {
			cur[path] = append(append([]byte{}, data...), "one more line\n"...)
		}
	}
	cur["f070.txt"] = bytes.ToUpper(old["f070.txt"])
	return old, cur
}

// relay copies frames from one pipe end to the other until either closes,
// passing each through edit.
func relay(from, to *transport.PipeEnd, edit func(ft byte, payload []byte) []byte) {
	defer from.Close()
	defer to.Close()
	fr, fw := wire.NewFrameReader(from), wire.NewFrameWriter(to)
	for {
		ft, payload, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if fw.WriteFrame(ft, edit(ft, payload)) != nil || fw.Flush() != nil {
			return
		}
	}
}

// collide forges a MANIFEST_SHORT: the entry for path carries the first
// bytes of sum, the holder's, in place of its own.
func collide(path string, sum [md4.Size]byte) func(byte, []byte) []byte {
	return func(ft byte, payload []byte) []byte {
		if ft != wire.FrameManifestShort {
			return payload
		}
		m, err := unpackManifest(payload, shortSum)
		if err != nil {
			panic(err)
		}
		for i := range m {
			if m[i].Path == path {
				copy(m[i].Sum[:shortSum], sum[:])
			}
		}
		p, _ := packManifest(m, shortSum)
		return p
	}
}

// vouch forges the holder's VERDICTS: its group sums become the ones the
// receiver computes over its own list, for the files the holder judged
// unchanged — the forged one among them. Every group then passes.
func vouch(old, cur map[string][]byte, forged string) func(byte, []byte) []byte {
	return func(ft byte, payload []byte) []byte {
		if ft != wire.FrameVerdicts {
			return payload
		}
		g := &sumGroups{list: BuildManifest(old)}
		for i, e := range g.list {
			if data, ok := cur[e.Path]; ok && (e.Path == forged || bytes.Equal(data, old[e.Path])) {
				g.kept = append(g.kept, i)
			}
		}
		sums := g.digests()
		out := append([]byte(nil), payload...)
		copy(out[len(out)-len(sums):], sums) // no version follows
		return out
	}
}

// collisionRun is one forged session's outcome: the receiver's collection
// after it, both ends' costs, and what the receiver traced and logged.
type collisionRun struct {
	files          map[string][]byte
	holder, recv   *stats.Costs
	notes, logText string
}

// runCollision syncs old to cur — a pull from a server, or a push into one —
// with the receiver's MANIFEST_SHORT forged so f070.txt collides, and, when
// liar is set, the holder's group sums forged to pass. A lazy pull's files
// are what it wrote over the old ones it lists as unchanged.
func runCollision(t *testing.T, push, lazy bool, width int, old, cur map[string][]byte, liar bool) collisionRun {
	t.Helper()
	const victim = "f070.txt"
	up := collide(victim, md4.Sum(cur[victim]))
	down := func(_ byte, p []byte) []byte { return p }
	if liar {
		down = vouch(old, cur, victim)
	}
	var log bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&log, nil))
	ring := obs.NewRing(256)
	holder, err := NewServer(cur, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var run collisionRun
	var recvErr, holdErr error
	dialer, dialProxy := transport.Pipe()
	acceptProxy, acceptor := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(4)
	if push {
		receiver, err := NewServer(old, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		receiver.AllowPush, receiver.Tracer, receiver.Logger = true, ring, logger
		receiver.OnUpdate = func(files map[string][]byte) { run.files = files }
		go func() { defer wg.Done(); relay(dialProxy, acceptProxy, down) }()
		go func() { defer wg.Done(); relay(acceptProxy, dialProxy, up) }()
		go func() { defer wg.Done(); defer dialer.Close(); run.holder, holdErr = holder.Push(dialer) }()
		go func() { defer wg.Done(); defer acceptor.Close(); run.recv, recvErr = receiver.Serve(acceptor) }()
	} else {
		holder.MuxStreams = width
		cli := NewClient(old)
		cli.MuxStreams, cli.Tracer, cli.Logger, cli.LazyResult = width, ring, logger, lazy
		go func() { defer wg.Done(); relay(dialProxy, acceptProxy, up) }()
		go func() { defer wg.Done(); relay(acceptProxy, dialProxy, down) }()
		go func() { defer wg.Done(); defer acceptor.Close(); run.holder, holdErr = holder.Serve(acceptor) }()
		go func() {
			defer wg.Done()
			defer dialer.Close()
			var res *Result
			if res, recvErr = cli.Sync(dialer); res != nil {
				run.files, run.recv = res.Files, res.Costs
				for _, p := range res.Unchanged {
					run.files[p] = old[p]
				}
			}
		}()
	}
	wg.Wait()
	if recvErr != nil || holdErr != nil {
		t.Fatalf("receiver: %v, holder: %v", recvErr, holdErr)
	}
	for _, e := range ring.Events() {
		run.notes += e.Note + "\n"
	}
	run.logText = log.String()
	return run
}

// TestSumGroupsCatchForcedCollisions: a changed file whose MANIFEST_SHORT
// entry is forged to carry the holder's 3-byte sum prefix passes the holder's
// length and prefix check, and is caught one layer down, by its group's MD4
// in the VERDICTS trailer: the receiver acks the group's 64 files, the FULL
// brings them whole, and the session converges to the holder's bytes — in a
// pull and a push, bare and over 16 streams, with engines beside the salvage
// and without. Both ends count the one failed group (SumGroupsFailed) and the
// files that went whole; the receiver's handshake span notes it and its log
// says so once. A lazy pull lists none of them as unchanged. (A push
// negotiates no streams, so it runs bare only.)
func TestSumGroupsCatchForcedCollisions(t *testing.T) {
	for _, c := range []struct {
		name       string
		push, lazy bool
		width      int
		engines    bool
	}{
		{"pull/bare/engines", false, false, 0, true},
		{"pull/bare/no-engines", false, false, 0, false},
		{"pull/bare/lazy", false, true, 0, true},
		{"pull/mux16/engines", false, false, 16, true},
		{"pull/mux16/no-engines", false, false, 16, false},
		{"push/bare/engines", true, false, 0, true},
		{"push/bare/no-engines", true, false, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			old, cur := collisionTrees(c.engines)
			run := runCollision(t, c.push, c.lazy, c.width, old, cur, false)
			if err := VerifyAgainst(run.files, cur); err != nil {
				t.Fatal(err)
			}
			for side, sc := range map[string]*stats.Costs{"holder": run.holder, "receiver": run.recv} {
				if sc.SumGroupsFailed != 1 || sc.FilesFull < sumGroup {
					t.Errorf("%s: %d groups failed, %d files whole: want one group's files whole", side, sc.SumGroupsFailed, sc.FilesFull)
				}
			}
			if run.holder.FilesFull != run.recv.FilesFull || run.holder.FilesUnchanged != run.recv.FilesUnchanged || run.holder.Roundtrips != run.recv.Roundtrips {
				t.Errorf("the ends disagree: full %d/%d, unchanged %d/%d, roundtrips %d/%d", run.holder.FilesFull, run.recv.FilesFull,
					run.holder.FilesUnchanged, run.recv.FilesUnchanged, run.holder.Roundtrips, run.recv.Roundtrips)
			}
			if (run.recv.FilesSynced > 0) != c.engines {
				t.Errorf("%d files synced by engines, want some: %v", run.recv.FilesSynced, c.engines)
			}
			if !strings.Contains(run.notes, "sum_groups_failed:1") || strings.Count(run.logText, "msync: sum groups failed") != 1 {
				t.Errorf("notes %q, log:\n%s\nwant the failed group noted and logged once", run.notes, run.logText)
			}
		})
	}
}

// TestForcedGroupPassLeavesTheFileStale proves the test above bites: with the
// holder's group sums forged to match the receiver's own, the forged file
// stays as it was — exactly what the group sums exist to prevent — and nothing
// counts a failed group.
func TestForcedGroupPassLeavesTheFileStale(t *testing.T) {
	for _, push := range []bool{false, true} {
		old, cur := collisionTrees(true)
		run := runCollision(t, push, false, 0, old, cur, true)
		if err := VerifyAgainst(run.files, cur); err == nil || !strings.Contains(err.Error(), "f070.txt") {
			t.Fatalf("push %v: %v, want f070.txt stale", push, err)
		}
		if run.recv.SumGroupsFailed != 0 {
			t.Fatalf("push %v: %d groups failed under forged group sums", push, run.recv.SumGroupsFailed)
		}
	}
}
