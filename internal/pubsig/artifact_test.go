package pubsig

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"msync/internal/dirio"
)

func stores(t *testing.T) map[string]ArtifactStore {
	t.Helper()
	dir, err := NewDirStore(filepath.Join(t.TempDir(), "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ArtifactStore{"mem": NewMemStore(), "dir": dir}
}

func TestArtifactStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("sig/absent"); !errors.Is(err, ErrNoArtifact) {
				t.Fatalf("absent get: %v", err)
			}
			if err := s.Put("v/00000001/manifest", []byte("m1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("sig/aa", []byte("s")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("v/00000001/manifest")
			if err != nil || string(got) != "m1" {
				t.Fatalf("get: %q, %v", got, err)
			}
			keys, err := s.Keys("v/")
			if err != nil || len(keys) != 1 || keys[0] != "v/00000001/manifest" {
				t.Fatalf("keys: %v, %v", keys, err)
			}
			all, err := s.Keys("")
			if err != nil || len(all) != 2 {
				t.Fatalf("all keys: %v, %v", all, err)
			}
		})
	}
}

func TestArtifactImmutability(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("blob/k", []byte("content")); err != nil {
				t.Fatal(err)
			}
			// Identical re-put is a no-op (idempotent publish).
			if err := s.Put("blob/k", []byte("content")); err != nil {
				t.Fatalf("identical re-put: %v", err)
			}
			// Different bytes under the same key must be refused.
			if err := s.Put("blob/k", []byte("DIFFERENT")); !errors.Is(err, ErrArtifactConflict) {
				t.Fatalf("conflicting put: %v", err)
			}
			got, _ := s.Get("blob/k")
			if string(got) != "content" {
				t.Fatalf("artifact mutated to %q", got)
			}
		})
	}
}

func TestArtifactKeyValidation(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "/abs", "trail/", "a//b", "../escape", "v/../../etc", "a/./b", "nul\x00", "back\\slash"} {
				if err := s.Put(bad, []byte("x")); err == nil {
					t.Errorf("key %q accepted", bad)
				}
			}
		})
	}
}

func TestDirStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("v/00000001/manifest", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("sig/ff", []byte("s")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("v/00000001/manifest")
	if err != nil || string(got) != "m" {
		t.Fatalf("reopened get: %q, %v", got, err)
	}
	keys, err := s2.Keys("")
	if err != nil || len(keys) != 2 {
		t.Fatalf("reopened keys: %v, %v", keys, err)
	}
}

func TestDirStoreIgnoresOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("blob/aa", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-publish: a temp file left behind.
	if err := os.WriteFile(filepath.Join(dir, "blob", ".pub-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys("")
	if err != nil || len(keys) != 1 || keys[0] != "blob/aa" {
		t.Fatalf("keys with orphan present: %v, %v", keys, err)
	}
}

// TestDirStoreIgnoresDirioTempFiles: since artifacts are written through
// dirio, a crash mid-publish leaves a temp file under dirio's prefix, which
// Keys skips as it skips the older ".pub-" ones.
func TestDirStoreIgnoresDirioTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("blob/aa", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob", dirio.TempPrefix+"123"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	if keys, err := s.Keys(""); err != nil || len(keys) != 1 || keys[0] != "blob/aa" {
		t.Fatalf("keys with orphan present: %v, %v", keys, err)
	}
}
