package msync_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"msync"
	"msync/internal/dirio"
	"msync/internal/pool"
)

// tapConn records both directions of a client's connection.
type tapConn struct {
	inner  io.ReadWriter
	rd, wr bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.rd.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wr.Write(p)
	return c.inner.Write(p)
}

// writeTinyTrees writes a small-file collection in nested directories, in
// the shape of the benchmark's tiny_tree workload: the server's copy has a
// few files edited, renamed, added and deleted against the client's.
func writeTinyTrees(t *testing.T) (serverDir, clientDir string) {
	t.Helper()
	serverDir, clientDir = t.TempDir(), t.TempDir()
	rng := rand.New(rand.NewSource(5))
	word := func() string { return fmt.Sprintf("tok%d ", rng.Intn(500)) }
	for i := range 400 {
		var b bytes.Buffer
		for b.Len() < 200+rng.Intn(1800) {
			b.WriteString(word())
		}
		rel := fmt.Sprintf("p%d/q%d/f%03d.txt", i%7, i%11, i)
		old := b.Bytes()
		writeDirFile(t, clientDir, rel, string(old))
		switch {
		case i%50 == 3: // edited
			cur := append(bytes.Clone(old[:len(old)/2]), "an edit in the middle "...)
			writeDirFile(t, serverDir, rel, string(append(cur, old[len(old)/2:]...)))
		case i%60 == 7: // renamed
			writeDirFile(t, serverDir, "moved/"+rel, string(old))
		case i%90 == 11: // deleted
		default:
			writeDirFile(t, serverDir, rel, string(old))
		}
	}
	writeDirFile(t, serverDir, "new/added.txt", "a file only the server has\n")
	return serverDir, clientDir
}

// syncTinyTree runs one tree-manifest, speculative-descent, cross-file,
// 16-stream session between the two directories with both ends at the given
// worker budget, and returns what the client's connection carried.
func syncTinyTree(t *testing.T, serverDir, clientDir string, workers int) (rd, wr []byte, res *msync.Result) {
	t.Helper()
	srv, werrs, err := msync.NewDirServer(serverDir, msync.DefaultConfig(),
		msync.WithTreeManifest(), msync.WithMuxStreams(16), msync.WithWorkers(workers))
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewDirServer: %v %v", err, werrs)
	}
	cli, werrs, err := msync.NewDirClient(clientDir, msync.WithLazyResult(), msync.WithTreeManifest(),
		msync.WithSpeculativeDescent(), msync.WithCrossFileMatch(), msync.WithMuxStreams(16), msync.WithWorkers(workers))
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewDirClient: %v %v", err, werrs)
	}
	a, b := msync.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		if _, err := srv.Serve(a); err != nil {
			t.Error(err)
		}
	}()
	tap := &tapConn{inner: b}
	res, err = cli.Sync(tap)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return tap.rd.Bytes(), tap.wr.Bytes(), res
}

// TestWorkersOneSameWireOnTrees: WithWorkers(1) walks and fingerprints both
// trees on the calling goroutine and the default spreads them over the
// workers; either way the session carries the same bytes both ways, and the
// result converges.
func TestWorkersOneSameWireOnTrees(t *testing.T) {
	serverDir, clientDir := writeTinyTrees(t)
	pool.SetParallelism(8)
	defer pool.SetParallelism(0)
	refRd, refWr, _ := syncTinyTree(t, serverDir, clientDir, 1)
	rd, wr, res := syncTinyTree(t, serverDir, clientDir, 0)
	if !bytes.Equal(rd, refRd) || !bytes.Equal(wr, refWr) {
		t.Fatalf("default workers: %d B down, %d B up; WithWorkers(1): %d and %d, or other bytes",
			len(rd), len(wr), len(refRd), len(refWr))
	}
	if res.Costs.FilesRenamed == 0 {
		t.Fatal("no rename matched: the trees do not exercise cross-file matching")
	}
	if err := res.Apply(clientDir); err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, serverDir, clientDir)
}

// TestTempOrphansNeitherServedNorDeleted: a crash between a writer's
// temporary file and its rename leaves a dirio.TempPrefix file behind. The
// walk skips it on both ends, so the holder does not serve its own and the
// receiver neither reports nor deletes its own.
func TestTempOrphansNeitherServedNorDeleted(t *testing.T) {
	serverDir, clientDir := t.TempDir(), t.TempDir()
	writeDirFile(t, serverDir, "a.txt", "the server's a\n")
	writeDirFile(t, clientDir, "a.txt", "the client's a\n")
	serverOrphan := "sub/" + dirio.TempPrefix + "111"
	clientOrphan := "sub/" + dirio.TempPrefix + "222"
	writeDirFile(t, serverDir, serverOrphan, "half a file on the server")
	writeDirFile(t, clientDir, clientOrphan, "half a file on the client")
	for _, dir := range []string{serverDir, clientDir} {
		tree, _, err := dirio.OpenTree(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tree.Files()); n != 1 {
			t.Fatalf("%s: the walk lists %v, want a.txt only", dir, tree.Files())
		}
		files, err := dirio.Load(dir)
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: Load lists %v (%v), want a.txt only", dir, pathsOf(files), err)
		}
	}

	srv, _, err := msync.NewDirServer(serverDir, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cli, _, err := msync.NewDirClient(clientDir, msync.WithLazyResult())
	if err != nil {
		t.Fatal(err)
	}
	a, b := msync.Pipe()
	go func() {
		defer a.Close()
		srv.Serve(a)
	}()
	res, err := cli.Sync(b)
	b.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deleted) != 0 || len(res.Files) != 1 || res.Files["a.txt"] == nil {
		t.Fatalf("written %v, deleted %v: want a.txt written and nothing deleted", pathsOf(res.Files), res.Deleted)
	}
	if err := res.Apply(clientDir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(clientDir, filepath.FromSlash(clientOrphan))); err != nil {
		t.Fatalf("the receiver's orphan is gone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(clientDir, filepath.FromSlash(serverOrphan))); err == nil {
		t.Fatal("the holder's orphan was served")
	}
}
