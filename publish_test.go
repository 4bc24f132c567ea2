package msync_test

// Tests of the publish-mode root API: PublishDir into a filesystem artifact
// store, PublishHandler as the HTTP surface, SyncPublished on the reader.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"msync"
	"msync/internal/dirio"
)

func TestPublishRoundTripAPI(t *testing.T) {
	srcDir, artifactDir, readerDir := t.TempDir(), t.TempDir(), t.TempDir()
	v1 := map[string][]byte{
		"a.txt":     bytes.Repeat([]byte("alpha content "), 300),
		"sub/b.txt": bytes.Repeat([]byte("beta content "), 200),
	}
	if err := dirio.ApplyChanges(srcDir, v1, nil); err != nil {
		t.Fatal(err)
	}

	store, err := msync.NewArtifactDir(artifactDir)
	if err != nil {
		t.Fatal(err)
	}
	v, created, err := msync.PublishDir(srcDir, store, 0)
	if err != nil || v != 1 || !created {
		t.Fatalf("publish: v=%d created=%v err=%v", v, created, err)
	}
	if v, created, err = msync.PublishDir(srcDir, store, 0); err != nil || v != 1 || created {
		t.Fatalf("re-publish unchanged: v=%d created=%v err=%v", v, created, err)
	}

	v2 := map[string][]byte{
		"a.txt":     append(append([]byte{}, v1["a.txt"]...), []byte("tail edit\n")...),
		"sub/b.txt": v1["sub/b.txt"],
		"c.txt":     []byte("new file\n"),
	}
	if err := dirio.ApplyChanges(srcDir, map[string][]byte{"a.txt": v2["a.txt"], "c.txt": v2["c.txt"]}, nil); err != nil {
		t.Fatal(err)
	}
	if v, created, err = msync.PublishDir(srcDir, store, 0); err != nil || v != 2 || !created {
		t.Fatalf("publish v2: v=%d created=%v err=%v", v, created, err)
	}

	h, err := msync.PublishHandler(store)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if err := dirio.ApplyChanges(readerDir, v1, nil); err != nil {
		t.Fatal(err)
	}
	res, err := msync.SyncPublished(context.Background(), srv.Client(), srv.URL, readerDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || !res.DeltaPath {
		t.Fatalf("sync result: %+v", res)
	}
	got, err := loadDir(readerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v2) {
		t.Fatalf("reader has %d files, want %d", len(got), len(v2))
	}
	for k, want := range v2 {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("file %q differs after publish sync", k)
		}
	}

	// PublishSyncer with DryRun reports without touching the tree.
	staleDir := t.TempDir()
	if err := dirio.ApplyChanges(staleDir, v1, nil); err != nil {
		t.Fatal(err)
	}
	sy := &msync.PublishSyncer{Client: srv.Client(), BaseURL: srv.URL, DryRun: true}
	dryRes, err := sy.Sync(context.Background(), staleDir)
	if err != nil {
		t.Fatal(err)
	}
	if dryRes.FilesSynced+dryRes.FilesFull == 0 {
		t.Fatalf("dry run found nothing to do: %+v", dryRes)
	}
	after, err := loadDir(staleDir)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range v1 {
		if !bytes.Equal(after[k], want) {
			t.Fatalf("dry run modified %q", k)
		}
	}
}
