package sigcache

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"msync/internal/md4"
)

func key(path string) Key {
	return Key{Path: path, Size: 100, MTime: 1_700_000_000_000_000_000, Fingerprint: 7}
}

// sig builds a signature consistent with key(): the disk store rejects
// entries whose signature length disagrees with the key's file size, so the
// fixture pins Len to key().Size while the sum still varies with content.
func sig(content string) *Sig {
	return NewSig(key("").Size, md4.Sum([]byte(content)))
}

func TestGetPutAndKeyInvalidation(t *testing.T) {
	c := New(Options{})
	k := key("a/b.txt")
	s := sig("hello")
	c.Put(k, s)

	got, ok := c.Get(k, nil)
	if !ok || got != s {
		t.Fatal("exact-key lookup missed")
	}

	// Any key component change is a miss: size, mtime, fingerprint.
	for name, bad := range map[string]Key{
		"size":        {Path: k.Path, Size: k.Size + 1, MTime: k.MTime, Fingerprint: k.Fingerprint},
		"mtime":       {Path: k.Path, Size: k.Size, MTime: k.MTime + 1, Fingerprint: k.Fingerprint},
		"fingerprint": {Path: k.Path, Size: k.Size, MTime: k.MTime, Fingerprint: k.Fingerprint + 1},
	} {
		if _, ok := c.Get(bad, nil); ok {
			t.Fatalf("%s change still hit", name)
		}
		// The mismatched lookup dropped the stale slot; reinstall for the
		// next case.
		c.Put(k, s)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses", st)
	}
}

func TestStaleSlotReplacedByPut(t *testing.T) {
	c := New(Options{})
	k1 := key("f.txt")
	c.Put(k1, sig("v1"))

	k2 := k1
	k2.MTime++
	c.Put(k2, sig("v2"))
	if c.lru.Len() != 1 {
		t.Fatalf("Len = %d, one path must own one slot", c.lru.Len())
	}
	if _, ok := c.Get(k2, nil); !ok {
		t.Fatal("new key not resident after same-path Put")
	}
	// A lookup under the superseded key misses and — since the lookup key is
	// taken to reflect the file's current stat — drops the slot entirely.
	if _, ok := c.Get(k1, nil); ok {
		t.Fatal("old key still resident after same-path Put")
	}
	if c.lru.Len() != 0 {
		t.Fatalf("Len = %d after stale lookup, want 0", c.lru.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Each level-free entry costs len(path)+96 = 97 bytes; a 200-byte budget
	// holds two.
	c := New(Options{MemBytes: 200})
	ka, kb, kc := key("a"), key("b"), key("c")
	c.Put(ka, sig("a"))
	c.Put(kb, sig("b"))
	if c.lru.Len() != 2 {
		t.Fatalf("Len = %d before eviction", c.lru.Len())
	}

	// Touch a so b becomes least-recently used, then overflow with c.
	if _, ok := c.Get(ka, nil); !ok {
		t.Fatal("a missing")
	}
	c.Put(kc, sig("c"))

	if _, ok := c.Get(kb, nil); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get(ka, nil); !ok {
		t.Fatal("recently touched entry evicted")
	}
	if _, ok := c.Get(kc, nil); !ok {
		t.Fatal("newest entry evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

func TestLevelMemoized(t *testing.T) {
	s := sig("content")
	builds := 0
	build := func() []uint64 {
		builds++
		return []uint64{1, 2, 3}
	}
	l1 := s.Level(1024, build)
	l2 := s.Level(1024, build)
	if builds != 1 {
		t.Fatalf("level built %d times", builds)
	}
	if &l1[0] != &l2[0] {
		t.Fatal("memoized level not shared")
	}
	if got := s.PeekLevel(1024); got == nil || &got[0] != &l1[0] {
		t.Fatal("PeekLevel disagrees with Level")
	}
	if s.PeekLevel(2048) != nil {
		t.Fatal("PeekLevel invented a level")
	}
}

func TestDiskRoundTripAndFlush(t *testing.T) {
	dir := t.TempDir()
	k := key("pkg/file.txt")
	s := sig("persisted content")
	s.Level(512, func() []uint64 { return []uint64{10, 20, 30} })

	c1 := New(Options{Dir: dir})
	c1.Put(k, s) // write-through: the 512 level is on disk now

	// Levels added after Put reach disk via Flush.
	s.Level(256, func() []uint64 { return []uint64{40, 50} })
	c1.Flush()

	c2 := New(Options{Dir: dir})
	got, ok := c2.Get(k, nil)
	if !ok {
		t.Fatal("disk entry missed after restart")
	}
	if got.Len != s.Len || got.Sum != s.Sum {
		t.Fatal("whole-file signature corrupted by round trip")
	}
	for _, b := range []int{512, 256} {
		want := s.PeekLevel(b)
		have := got.PeekLevel(b)
		if len(have) != len(want) {
			t.Fatalf("level %d: %d hashes, want %d", b, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("level %d hash %d mismatch", b, i)
			}
		}
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one disk-served hit", st)
	}
	// The promoted entry is now resident: a second Get must not touch disk.
	if _, ok := c2.Get(k, nil); !ok || c2.Stats().DiskHits != 1 {
		t.Fatal("promotion to memory failed")
	}
}

// entryFile returns the single .sig file in dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.sig"))
	if err != nil || len(m) != 1 {
		t.Fatalf("store files = %v (err %v), want exactly one", m, err)
	}
	return m[0]
}

func TestDiskCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	New(Options{Dir: dir}).Put(k, sig("data"))

	path := entryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{Dir: dir})
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st := c.Stats()
	if st.BadEntries != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 bad entry / 1 miss", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed from the store")
	}
}

func TestDiskTruncationIsMiss(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	New(Options{Dir: dir}).Put(k, sig("data"))

	path := entryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: dir})
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if c.Stats().BadEntries != 1 {
		t.Fatal("truncation not counted as a bad entry")
	}
}

func TestDiskVersionMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	New(Options{Dir: dir}).Put(k, sig("data"))

	// Rewrite the entry as a valid file of a future store version: bump the
	// version byte and recompute the trailing checksum, so only the version
	// check can reject it.
	path := entryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-md4.Size]
	body[4] = diskVersion + 1
	check := md4.Sum(body)
	if err := os.WriteFile(path, append(body, check[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{Dir: dir})
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("future-version entry served as a hit")
	}
	if c.Stats().BadEntries != 1 {
		t.Fatal("version mismatch not counted as a bad entry")
	}
}

func TestDiskKeyMismatchIsMiss(t *testing.T) {
	// Every stat-visible change must invalidate the on-disk entry, down to a
	// single nanosecond of mtime: filesystems with nanosecond timestamps can
	// legally rewrite a file within the same second.
	for name, tweak := range map[string]func(*Key){
		"mtime-second":     func(k *Key) { k.MTime += int64(1e9) },
		"mtime-nanosecond": func(k *Key) { k.MTime++ },
		"size":             func(k *Key) { k.Size++ },
		"fingerprint":      func(k *Key) { k.Fingerprint++ },
	} {
		dir := t.TempDir()
		k := key("x.txt")
		New(Options{Dir: dir}).Put(k, sig("data"))

		changed := k
		tweak(&changed)
		c := New(Options{Dir: dir})
		if _, ok := c.Get(changed, nil); ok {
			t.Fatalf("%s: entry for the old key hit under the new key", name)
		}
		st := c.Stats()
		if st.BadEntries != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v, want the stale entry discarded", name, st)
		}
	}
}

func TestDiskV1EntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	New(Options{Dir: dir}).Put(k, sig("data"))

	// Rewrite the entry as a byte-valid version-1 file (v1 and v2 share the
	// layout; only the version byte and the decode rules differ) so exactly
	// the version check can reject it.
	path := entryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-md4.Size]
	body[4] = 1
	check := md4.Sum(body)
	if err := os.WriteFile(path, append(body, check[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{Dir: dir})
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("version-1 entry served as a hit")
	}
	st := c.Stats()
	if st.BadEntries != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the v1 entry discarded", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("v1 entry not removed from the store")
	}
}

func TestDiskSigLenMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	// An entry whose signature length disagrees with its own key's size is
	// internally inconsistent (e.g. the file changed between stat and read).
	inconsistent := NewSig(k.Size-1, md4.Sum([]byte("data")))
	New(Options{Dir: dir}).Put(k, inconsistent)

	c := New(Options{Dir: dir})
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("entry with mismatched signature length served as a hit")
	}
	if c.Stats().BadEntries != 1 {
		t.Fatal("signature/size mismatch not counted as a bad entry")
	}
}

func TestVerifyRejectionEvicts(t *testing.T) {
	c := New(Options{})
	k := key("x.txt")
	c.Put(k, sig("data"))

	reject := func(*Sig) bool { return false }
	if _, ok := c.Get(k, reject); ok {
		t.Fatal("rejected entry still served")
	}
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("rejected entry still resident")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
}

func TestDiskVerifyRejectionRemoves(t *testing.T) {
	dir := t.TempDir()
	k := key("x.txt")
	New(Options{Dir: dir}).Put(k, sig("data"))

	c := New(Options{Dir: dir})
	reject := func(*Sig) bool { return false }
	if _, ok := c.Get(k, reject); ok {
		t.Fatal("rejected disk entry still served")
	}
	if _, err := os.Stat(entryPathOf(dir, k.Path)); !os.IsNotExist(err) {
		t.Fatal("rejected disk entry not removed")
	}
}

// entryPathOf mirrors Cache.entryPath for assertions.
func entryPathOf(dir, path string) string {
	c := New(Options{Dir: dir})
	return c.entryPath(path)
}

func TestUnreadableDirIsJustAMiss(t *testing.T) {
	// A store directory that never materializes (or was deleted) must not
	// break lookups or writes.
	dir := filepath.Join(t.TempDir(), "never-created")
	c := New(Options{Dir: dir})
	if _, ok := c.Get(key("a"), nil); ok {
		t.Fatal("hit from a nonexistent store")
	}
	c.Put(key("a"), sig("x")) // creates the directory on first write
	c2 := New(Options{Dir: dir})
	if _, ok := c2.Get(key("a"), nil); !ok {
		t.Fatal("write-through did not create the store")
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New(Options{Dir: t.TempDir(), MemBytes: 4 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var nameBuf [8]byte
				binary.LittleEndian.PutUint64(nameBuf[:], uint64(i%10))
				k := key(string(nameBuf[:]))
				if s, ok := c.Get(k, nil); ok {
					s.Level(1024, func() []uint64 { return []uint64{uint64(i)} })
					continue
				}
				s := sig("shared content")
				s.Level(512, func() []uint64 { return []uint64{uint64(g)} })
				c.Put(k, s)
			}
		}(g)
	}
	wg.Wait()
	c.Flush()
}

// pinnedEntry is one entry that exercises every field of the disk layout: a
// negative mtime (a signed varint), a ctime, a 64-bit fingerprint and two
// level tables.
func pinnedEntry() (Key, *Sig) {
	k := Key{Path: "src/pinned.c", Size: 4096, MTime: -1_234_567_891, CTime: 1_700_000_000_123_456_789, Fingerprint: 0xfedcba9876543210}
	s := NewSig(k.Size, md4.Sum([]byte("pinned content")))
	s.setLevel(512, []uint64{1, 1 << 63, 0xdeadbeefcafef00d})
	s.setLevel(2048, []uint64{42, 7})
	return k, s
}

// TestDiskEntryBytesPinned: the bytes of a persisted entry are the on-disk
// format. A change to them must bump diskVersion, so old entries read as
// misses instead of being misparsed.
func TestDiskEntryBytesPinned(t *testing.T) {
	dir := t.TempDir()
	k, s := pinnedEntry()
	New(Options{Dir: dir}).Put(k, s)
	data, err := os.ReadFile(entryFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	const want = "ab276fa34e02936efd265ebdc4884d25"
	if got := fmt.Sprintf("%x", md4.Sum(data)); got != want || len(data) != 123 {
		t.Fatalf("entry md4 %s (%d bytes), want %s (123 bytes)", got, len(data), want)
	}
}
