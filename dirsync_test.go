package msync_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msync"
	"msync/internal/dirio"
)

func writeDirFile(t *testing.T, dir, rel, content string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadDir reads every file under root, keyed by slash-separated path.
func loadDir(root string) (map[string][]byte, error) {
	tree, werrs, err := dirio.OpenTree(root)
	if err == nil && len(werrs) > 0 {
		err = werrs
	}
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(tree.Files()))
	for _, fi := range tree.Files() {
		if files[fi.Path], err = tree.Load(fi.Path); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// dirSyncOnce runs one directory-to-directory sync with both endpoints
// backed by persistent signature caches, returning the client result and the
// server session costs.
func dirSyncOnce(t *testing.T, serverDir, clientDir, serverCache, clientCache string) (*msync.Result, *msync.Costs) {
	t.Helper()
	srv, werrs, err := msync.NewDirServer(serverDir, msync.DefaultConfig(),
		msync.WithSignatureCache(serverCache, 0))
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewDirServer: %v %v", err, werrs)
	}
	cli, werrs, err := msync.NewDirClient(clientDir,
		msync.WithSignatureCache(clientCache, 0))
	if err != nil || len(werrs) > 0 {
		t.Fatalf("NewDirClient: %v %v", err, werrs)
	}

	a, b := msync.Pipe()
	var serverCosts *msync.Costs
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		c, err := srv.Serve(a)
		if err != nil {
			t.Error(err)
		}
		serverCosts = c
	}()
	res, err := cli.Sync(b)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	wg.Wait()
	return res, serverCosts
}

// TestDirSyncEndToEnd drives the directory-backed API through a full cycle:
// sync an outdated tree, apply the result in place, then sync again and
// verify the warm repeat costs no hashing at all — the signature caches
// answer every fingerprint and no engines run.
func TestDirSyncEndToEnd(t *testing.T) {
	serverDir, clientDir := t.TempDir(), t.TempDir()
	serverCache, clientCache := t.TempDir(), t.TempDir()
	body := func(tag string, n int) string {
		return strings.Repeat("line of content for "+tag+"\n", n)
	}
	writeDirFile(t, serverDir, "same/a.txt", body("a", 200))
	writeDirFile(t, clientDir, "same/a.txt", body("a", 200))
	writeDirFile(t, serverDir, "mod/b.txt", body("b", 300)+"changed tail\n")
	writeDirFile(t, clientDir, "mod/b.txt", body("b", 300))
	writeDirFile(t, serverDir, "new/c.txt", body("c", 50))
	writeDirFile(t, clientDir, "old/d.txt", body("d", 40))

	res, _ := dirSyncOnce(t, serverDir, clientDir, serverCache, clientCache)
	if len(res.Files) != 2 { // mod/b.txt rewritten, new/c.txt created
		t.Fatalf("Files = %v, want the two written paths", pathsOf(res.Files))
	}
	if len(res.Deleted) != 1 || res.Deleted[0] != "old/d.txt" {
		t.Fatalf("Deleted = %v", res.Deleted)
	}
	if len(res.Unchanged) != 1 || res.Unchanged[0] != "same/a.txt" {
		t.Fatalf("Unchanged = %v", res.Unchanged)
	}
	if err := res.Apply(clientDir); err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, serverDir, clientDir)

	// The trees are now identical; a repeat sync with warm caches is answered
	// entirely by stat identity. Server side: every fingerprint a cache hit,
	// zero bytes hashed, zero block hashes (no engines run at all).
	res2, serverCosts := dirSyncOnce(t, serverDir, clientDir, serverCache, clientCache)
	if len(res2.Files) != 0 || len(res2.Deleted) != 0 || len(res2.Unchanged) != 3 {
		t.Fatalf("repeat sync not a no-op: %d written / %d deleted / %d unchanged",
			len(res2.Files), len(res2.Deleted), len(res2.Unchanged))
	}
	if serverCosts.CacheMisses != 0 || serverCosts.CacheHits == 0 {
		t.Fatalf("warm server: %d misses / %d hits", serverCosts.CacheMisses, serverCosts.CacheHits)
	}
	if serverCosts.BytesHashed != 0 || serverCosts.BlockHashesComputed != 0 {
		t.Fatalf("warm server hashed %d bytes / %d block hashes, want zero",
			serverCosts.BytesHashed, serverCosts.BlockHashesComputed)
	}
	// Client side: the files written by Apply have fresh mtimes (misses); the
	// untouched file must still hit.
	if res2.Costs.CacheHits == 0 {
		t.Fatal("warm client recorded no cache hits")
	}
}

// TestDirClientApplyReplacesOnlyWrittenFiles: a directory-backed client's
// result holds only what its session wrote, so Result.Apply replaces the one
// edited file of 201 and leaves the other 200 the same files on disk (same
// inode), with or without WithLazyResult, which does nothing.
func TestDirClientApplyReplacesOnlyWrittenFiles(t *testing.T) {
	for _, opts := range [][]msync.Option{nil, {msync.WithLazyResult()}} {
		files := make(map[string][]byte)
		for i := range 201 {
			files[fmt.Sprintf("d%d/f%03d.txt", i%5, i)] = bytes.Repeat([]byte(fmt.Sprint(i, " ")), 300)
		}
		clientDir := writeDir(t, files)
		const edited = "d0/f100.txt"
		files[edited] = append(bytes.Clone(files[edited]), "edited"...)
		serverDir := writeDir(t, files)
		before := make(map[string]os.FileInfo, len(files))
		for rel := range files {
			fi, err := os.Stat(filepath.Join(clientDir, filepath.FromSlash(rel)))
			if err != nil {
				t.Fatal(err)
			}
			before[rel] = fi
		}

		srv, _, err := msync.NewDirServer(serverDir, msync.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cli, _, err := msync.NewDirClient(clientDir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := storeSyncOnce(t, srv, cli)
		if len(res.Files) != 1 || res.Files[edited] == nil || len(res.Unchanged) != 200 {
			t.Fatalf("%d options: result writes %d files and keeps %d, want 1 (%s) and 200", len(opts), len(res.Files), len(res.Unchanged), edited)
		}
		if err := res.Apply(clientDir); err != nil {
			t.Fatal(err)
		}
		assertDirsEqual(t, serverDir, clientDir)
		replaced := 0
		for rel, fi := range before {
			after, err := os.Stat(filepath.Join(clientDir, filepath.FromSlash(rel)))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(fi, after) {
				replaced++
				if rel != edited {
					t.Errorf("%d options: Apply replaced unchanged %s", len(opts), rel)
				}
			}
		}
		if replaced != 1 {
			t.Fatalf("%d options: Apply replaced %d of %d files, want 1", len(opts), replaced, len(before))
		}
	}
}

func pathsOf(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func assertDirsEqual(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	want, err := loadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("trees differ: %v vs %v", pathsOf(want), pathsOf(got))
	}
	for rel, data := range want {
		if !bytes.Equal(got[rel], data) {
			t.Fatalf("content differs for %s", rel)
		}
	}
}

// TestDirServerMissingRoot: an unusable root is a hard error, not a silent
// empty collection.
func TestDirServerMissingRoot(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent")
	if _, _, err := msync.NewDirServer(absent, msync.DefaultConfig()); err == nil {
		t.Fatal("missing server root accepted")
	}
	if _, _, err := msync.NewDirClient(absent); err == nil {
		t.Fatal("missing client root accepted")
	}
}
