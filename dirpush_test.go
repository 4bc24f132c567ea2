package msync_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"msync"
	"msync/internal/dirio"
)

// pushTrees is a collection of 40 files and its next version: three edited,
// one added, one deleted.
func pushTrees() (old, cur map[string][]byte) {
	old = make(map[string][]byte)
	for i := range 40 {
		old[fmt.Sprintf("d%d/f%02d.txt", i%4, i)] = bytes.Repeat([]byte(fmt.Sprintf("file %d line\n", i)), 200)
	}
	cur = maps.Clone(old)
	for _, rel := range []string{"d0/f00.txt", "d1/f13.txt", "d3/f39.txt"} {
		cur[rel] = append(bytes.Clone(old[rel]), "edited tail\n"...)
	}
	cur["new/added.txt"] = bytes.Repeat([]byte("added\n"), 100)
	delete(cur, "d2/f22.txt")
	return old, cur
}

// writeDir writes files into a new directory and returns it.
func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := dirio.ApplyChanges(dir, files, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sortedPaths is the paths of m in order.
func sortedPaths(m map[string][]byte) []string {
	paths := pathsOf(m)
	slices.Sort(paths)
	return paths
}

// pushOnce pushes pusher's collection into receiver over a pipe and returns
// the two ends' errors.
func pushOnce(pusher, receiver *msync.Server) (pushErr, recvErr error) {
	a, b := msync.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, recvErr = receiver.Serve(a)
	}()
	_, pushErr = pusher.Push(b)
	b.Close()
	wg.Wait()
	return pushErr, recvErr
}

// TestPushIntoDirServer: a push into a directory server is written into its
// directory, bare and with a signature cache and a version store. The
// directory ends byte-equal to the pusher's, onUpdate receives exactly the
// files the push wrote, a following pull of an outdated copy converges with
// the server's cache hit for every file the push did not write, and
// Snapshot cuts the pushed collection as a new version.
func TestPushIntoDirServer(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(map[bool]string{false: "bare", true: "cache+store"}[cached], func(t *testing.T) {
			old, cur := pushTrees()
			replicaDir, sourceDir := writeDir(t, old), writeDir(t, cur)
			var updated map[string][]byte
			opts := []msync.Option{msync.WithPush(func(files map[string][]byte) { updated = files })}
			if cached {
				opts = append(opts, msync.WithSignatureCache(t.TempDir(), 0), msync.WithStore(t.TempDir()))
			}
			receiver, _, err := msync.NewDirServer(replicaDir, msync.DefaultConfig(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer receiver.Close()
			if cached {
				if v, err := receiver.Snapshot(); err != nil || v != 1 {
					t.Fatalf("snapshot before the push = (%d, %v), want v1", v, err)
				}
			}
			pusher, _, err := msync.NewDirServer(sourceDir, msync.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if pushErr, recvErr := pushOnce(pusher, receiver); pushErr != nil || recvErr != nil {
				t.Fatalf("pusher: %v, receiver: %v", pushErr, recvErr)
			}
			assertDirsEqual(t, sourceDir, replicaDir)
			written := []string{"d0/f00.txt", "d1/f13.txt", "d3/f39.txt", "new/added.txt"}
			if got := sortedPaths(updated); !slices.Equal(got, written) {
				t.Fatalf("onUpdate got %v, want the written %v", got, written)
			}
			for rel, data := range updated {
				if !bytes.Equal(data, cur[rel]) {
					t.Fatalf("onUpdate's %s is not the pushed content", rel)
				}
			}

			cli, _, err := msync.NewDirClient(writeDir(t, old))
			if err != nil {
				t.Fatal(err)
			}
			res, serverCosts := storeSyncOnce(t, receiver, cli)
			if got := sortedPaths(res.Files); !slices.Equal(got, written) || len(res.Deleted) != 1 {
				t.Fatalf("pull after the push writes %v and deletes %v, want %v and d2/f22.txt", got, res.Deleted, written)
			}
			if cached {
				if hits, misses := serverCosts.CacheHits, serverCosts.CacheMisses; hits != int64(len(cur)-len(written)) || misses != int64(len(written)) {
					t.Fatalf("pull after the push: %d cache hits, %d misses; want %d and %d", hits, misses, len(cur)-len(written), len(written))
				}
				if v, err := receiver.Snapshot(); err != nil || v != 2 {
					t.Fatalf("snapshot after the push = (%d, %v), want v2", v, err)
				}
			}
		})
	}
}

// TestTreeModeLeavesOnlySigcacheEntries: a tree pull and a tree push between
// directory endpoints with signature-cache directories leave nothing in those
// directories but the cache's own entries. Merkle trees live in memory.
func TestTreeModeLeavesOnlySigcacheEntries(t *testing.T) {
	old, cur := pushTrees()
	cached := func(dir string, opts ...msync.Option) (*msync.Server, string) {
		cache := t.TempDir()
		srv, _, err := msync.NewDirServer(dir, msync.DefaultConfig(), append(opts, msync.WithSignatureCache(cache, 0))...)
		if err != nil {
			t.Fatal(err)
		}
		return srv, cache
	}

	server, serverCache := cached(writeDir(t, cur))
	clientCache := t.TempDir()
	cli, _, err := msync.NewDirClient(writeDir(t, old), msync.WithTreeManifest(), msync.WithSignatureCache(clientCache, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := storeSyncOnce(t, server, cli); res.Costs.TreeRounds == 0 {
		t.Fatal("the pull ran no merkle descent")
	}

	pusher, pusherCache := cached(writeDir(t, cur), msync.WithTreeManifest())
	receiver, receiverCache := cached(writeDir(t, old), msync.WithPush(nil))
	if pushErr, recvErr := pushOnce(pusher, receiver); pushErr != nil || recvErr != nil {
		t.Fatalf("pusher: %v, receiver: %v", pushErr, recvErr)
	}

	for _, dir := range []string{serverCache, clientCache, pusherCache, receiverCache} {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("cache directory holds %d entries (%v): the cache went unused", len(entries), err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".sig" {
				t.Fatalf("cache directory holds %s, not a signature-cache entry", e.Name())
			}
		}
	}
}

// pinnedPull holds a pull between its HELLO and its list. Its client end
// passes on the first frame the client writes, the HELLO, and holds the rest
// until release is closed. asked closes when its server end is read past the
// HELLO: the server has begun the session over the collection it serves then
// and waits for the client's list.
type pinnedPull struct {
	release, asked chan struct{}
	hello          chan int // the HELLO frame's length, once passed on
}

type pinnedClient struct {
	io.ReadWriteCloser
	pin  *pinnedPull
	sent bool
}

func (c *pinnedClient) Write(p []byte) (int, error) {
	if c.sent {
		return c.ReadWriteCloser.Write(p)
	}
	c.sent = true
	n, k := binary.Uvarint(p[1:]) // after the frame type, the payload length
	head := 1 + k + int(n)
	if _, err := c.ReadWriteCloser.Write(p[:head]); err != nil {
		return 0, err
	}
	c.pin.hello <- head
	<-c.pin.release
	m, err := c.ReadWriteCloser.Write(p[head:])
	return head + m, err
}

type pinnedServer struct {
	io.ReadWriteCloser
	pin         *pinnedPull
	read, hello int // hello is -1 once asked is closed
}

func (s *pinnedServer) Read(p []byte) (int, error) {
	if s.hello == 0 {
		s.hello = <-s.pin.hello
	}
	if s.read == s.hello {
		close(s.pin.asked)
		s.hello = -1
	}
	n, err := s.ReadWriteCloser.Read(p)
	s.read += n
	return n, err
}

// TestPullDuringPushIntoDirServer: a pull whose session began over the
// collection before a push was written, and loads the files after, fails or
// returns, for every file, the version before the push or the one after it,
// byte for byte; never a mix within a file. It does not see the file the
// push added. The pulling client's copy differs from both versions, so every
// file it keeps came over the wire, and one pushed file keeps its length, so
// a cached signature of the old version matches it by length: the holder
// must see that the file it read is not the one its walk fingerprinted, and
// sync it without that signature, so nothing is sent whole. Run under -race.
func TestPullDuringPushIntoDirServer(t *testing.T) {
	old, cur := pushTrees()
	for rel, data := range old {
		cur[rel] = append([]byte("pushed head\n"), data...) // every file changes
	}
	delete(cur, "d2/f22.txt")
	cur["d1/f01.txt"] = bytes.ToUpper(old["d1/f01.txt"])
	stale := make(map[string][]byte, len(old))
	for rel, data := range old {
		stale[rel] = append(bytes.Clone(data), "stale tail\n"...)
	}
	for _, cached := range []bool{false, true} {
		for round := range 4 {
			replicaDir, sourceDir := writeDir(t, old), writeDir(t, cur)
			// The push writes the replica's files now; the walk saw them an
			// hour older, whatever the clock's tick.
			hourAgo := time.Now().Add(-time.Hour)
			for rel := range old {
				if err := os.Chtimes(filepath.Join(replicaDir, rel), hourAgo, hourAgo); err != nil {
					t.Fatal(err)
				}
			}
			opts := []msync.Option{msync.WithPush(nil)}
			if cached {
				opts = append(opts, msync.WithSignatureCache(t.TempDir(), 0))
			}
			receiver, _, err := msync.NewDirServer(replicaDir, msync.DefaultConfig(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			pusher, _, err := msync.NewDirServer(sourceDir, msync.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pin := &pinnedPull{release: make(chan struct{}), asked: make(chan struct{}), hello: make(chan int, 1)}
			a, b := msync.Pipe()
			var wg sync.WaitGroup
			var res *msync.Result
			var pullErr error
			wg.Add(2)
			go func() { defer wg.Done(); defer a.Close(); receiver.Serve(&pinnedServer{ReadWriteCloser: a, pin: pin}) }()
			go func() {
				defer wg.Done()
				defer b.Close()
				res, pullErr = msync.NewClient(stale).Sync(&pinnedClient{ReadWriteCloser: b, pin: pin})
			}()
			<-pin.asked
			pushErr, recvErr := pushOnce(pusher, receiver)
			close(pin.release)
			wg.Wait()
			if pushErr != nil || recvErr != nil {
				t.Fatalf("pusher: %v, receiver: %v", pushErr, recvErr)
			}
			assertDirsEqual(t, sourceDir, replicaDir)
			if pullErr != nil {
				continue // a failed pull returns nothing to check
			}
			for rel, data := range res.Files {
				if !bytes.Equal(data, old[rel]) && !bytes.Equal(data, cur[rel]) {
					t.Fatalf("cached %v, round %d: pulled %s is neither version (%d bytes)", cached, round, rel, len(data))
				}
			}
			if res.Files["new/added.txt"] != nil {
				t.Fatalf("cached %v, round %d: the pull got the file a push added after its session began", cached, round)
			}
			// d1/f01.txt keeps its length through the push: a holder that
			// took the walk's signature for the bytes it read would fail the
			// file's whole-file check and send it again in a FULL.
			if res.Costs.FilesFull != 0 {
				t.Errorf("cached %v, round %d: %d files sent whole, want none", cached, round, res.Costs.FilesFull)
			}
		}
	}
}

// firstRead closes read once the first Read on the wrapped end has returned,
// and holds that Read until release is closed.
type firstRead struct {
	io.ReadWriteCloser
	read, release chan struct{}
	done          bool
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.ReadWriteCloser.Read(p)
	if !f.done {
		f.done = true
		close(f.read)
		<-f.release
	}
	return n, err
}

// TestPushesRunInTurn: a push that reaches a directory server while another
// is in flight is consumed after the first is adopted, over the collection it
// left, so the directory ends as the second pusher's tree. Consumed over the
// same collection, the two would each write what they changed against it,
// and the directory would hold both pushers' files.
func TestPushesRunInTurn(t *testing.T) {
	old, _ := pushTrees()
	first, second := maps.Clone(old), maps.Clone(old)
	first["only-first.txt"] = []byte("pushed first")
	second["only-second.txt"] = []byte("pushed second")
	replicaDir, secondDir := writeDir(t, old), writeDir(t, second)
	receiver, _, err := msync.NewDirServer(replicaDir, msync.DefaultConfig(), msync.WithPush(nil))
	if err != nil {
		t.Fatal(err)
	}
	pushers := make([]*msync.Server, 2)
	for i, dir := range []string{writeDir(t, first), secondDir} {
		if pushers[i], _, err = msync.NewDirServer(dir, msync.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	released := make(chan struct{})
	close(released)
	// The first pusher is held once the receiver's list reaches it: the
	// receiver consumes that push over the collection before either. The
	// second is let go once the receiver has read its HELLO.
	ends := []*firstRead{
		{read: make(chan struct{}), release: make(chan struct{})},
		{read: make(chan struct{}), release: released},
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i, pusher := range pushers {
		a, b := msync.Pipe()
		var served, pushed io.ReadWriteCloser = a, b
		if i == 0 { // held at the pusher
			ends[i].ReadWriteCloser, pushed = b, ends[i]
		} else { // watched at the receiver
			ends[i].ReadWriteCloser, served = a, ends[i]
		}
		wg.Add(2)
		go func() { defer wg.Done(); defer a.Close(); _, errs[2*i] = receiver.Serve(served) }()
		go func() { defer wg.Done(); defer b.Close(); _, errs[2*i+1] = pusher.Push(pushed) }()
		<-ends[i].read
	}
	close(ends[0].release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	assertDirsEqual(t, secondDir, replicaDir)
}

// TestSymlinkedDirIsRefused: a replica directory that is a symlink to one
// outside the replica is never written through. The replica's walk skips the
// symlink, so the holder sends docs/evil.txt as a new file; writing it, by a
// pull's Result.Apply or by a directory server taking a push, fails with
// dirio.ErrUnsafeDir before anything is put into place: nothing appears
// outside, and a.txt, changed in the same result, keeps its old content.
func TestSymlinkedDirIsRefused(t *testing.T) {
	old := map[string][]byte{"a.txt": []byte("old a\n")}
	cur := map[string][]byte{"a.txt": []byte("new a\n"), "docs/evil.txt": []byte("evil\n")}
	setUp := func(t *testing.T) (replicaDir, outside string) {
		replicaDir, outside = writeDir(t, old), t.TempDir()
		if err := os.Symlink(outside, filepath.Join(replicaDir, "docs")); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
		return replicaDir, outside
	}
	check := func(t *testing.T, err error, replicaDir, outside string) {
		t.Helper()
		if !errors.Is(err, dirio.ErrUnsafeDir) {
			t.Fatalf("err = %v, want dirio.ErrUnsafeDir", err)
		}
		if ents, _ := os.ReadDir(outside); len(ents) != 0 {
			t.Fatalf("%d entries written outside the replica", len(ents))
		}
		if got, _ := os.ReadFile(filepath.Join(replicaDir, "a.txt")); !bytes.Equal(got, old["a.txt"]) {
			t.Fatalf("a.txt = %q, want the old content", got)
		}
		ents, _ := os.ReadDir(replicaDir)
		if len(ents) != 2 {
			t.Fatalf("the replica holds %d entries, want a.txt and the symlink", len(ents))
		}
	}
	t.Run("pull", func(t *testing.T) {
		replicaDir, outside := setUp(t)
		srv, _, err := msync.NewDirServer(writeDir(t, cur), msync.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cli, _, err := msync.NewDirClient(replicaDir)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := storeSyncOnce(t, srv, cli)
		if _, ok := res.Files["docs/evil.txt"]; !ok {
			t.Fatalf("the result writes %v, want docs/evil.txt among them", sortedPaths(res.Files))
		}
		check(t, res.Apply(replicaDir), replicaDir, outside)
	})
	t.Run("push", func(t *testing.T) {
		replicaDir, outside := setUp(t)
		receiver, _, err := msync.NewDirServer(replicaDir, msync.DefaultConfig(), msync.WithPush(func(map[string][]byte) {}))
		if err != nil {
			t.Fatal(err)
		}
		defer receiver.Close()
		pusher, _, err := msync.NewDirServer(writeDir(t, cur), msync.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, recvErr := pushOnce(pusher, receiver)
		check(t, recvErr, replicaDir, outside)
	})
}
