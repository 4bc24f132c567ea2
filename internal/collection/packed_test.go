package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"msync/internal/core"
	"msync/internal/md4"
	"msync/internal/wire"
)

// randomManifest is a sorted manifest of up to n distinct entries whose paths
// mix shared directories, non-ASCII names, paths that share nothing with their
// neighbour and one path of 4 KB, with lengths up to 2⁶³−1.
func randomManifest(rng *rand.Rand, n int) []ManifestEntry {
	pieces := []string{"src/", "doc/", "été/", "日本語/", "a", "Ω", "-", "x.txt", strings.Repeat("z", 4096)}
	lens := []int{0, 1, 200, 2000, min(1<<40, math.MaxInt), math.MaxInt}
	byPath := make(map[string]ManifestEntry, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for k := rng.Intn(4); k >= 0; k-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		fmt.Fprintf(&sb, "%d", rng.Intn(1000))
		e := ManifestEntry{Path: sb.String(), Len: lens[rng.Intn(len(lens))]}
		rng.Read(e.Sum[:])
		byPath[e.Path] = e
	}
	m := make([]ManifestEntry, 0, len(byPath))
	for _, e := range byPath {
		m = append(m, e)
	}
	sort.Slice(m, func(i, j int) bool { return m[i].Path < m[j].Path })
	return m
}

// sameManifest reports whether two manifests hold the same entries in order.
func sameManifest(a, b []ManifestEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPackedManifestRoundTrip: a packed manifest decodes to the list it was
// built from — empty, one and two entries, 4 KB and non-ASCII paths, paths
// sharing nothing, lengths up to 2⁶³−1 — exactly when the encoder says it fits
// the decoder's caps; otherwise the decoder refuses it with errPacked. At
// MANIFEST_SHORT's width the list comes back with each sum cut to its first
// three bytes.
func TestPackedManifestRoundTrip(t *testing.T) {
	check := func(m []ManifestEntry) error {
		for _, width := range []int{md4.Size, shortSum} {
			p, fits := packManifest(m, width)
			got, err := unpackManifest(p, width)
			want := append([]ManifestEntry(nil), m...)
			for i := range want {
				clear(want[i].Sum[width:])
			}
			switch {
			case fits && (err != nil || !sameManifest(got, want)):
				return fmt.Errorf("%d entries, width %d: a fitting frame decodes to %d entries (%v)", len(m), width, len(got), err)
			case !fits && !errors.Is(err, errPacked):
				return fmt.Errorf("%d entries, width %d: a frame past its caps decodes (%v)", len(m), width, err)
			}
		}
		return nil
	}
	fixed := [][]ManifestEntry{
		nil,
		{{Path: "only", Len: math.MaxInt}},
		{{Path: "a"}, {Path: "b", Len: 1}},
		{{Path: "été/ü"}, {Path: "日本語/x", Len: 7}},
		{{Path: strings.Repeat("q", 4096), Len: 3}},
		{{Path: strings.Repeat("q", 4096)}, {Path: strings.Repeat("q", 4095) + "r"}},
	}
	for _, m := range fixed {
		if err := check(m); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64, n uint8) bool {
		if err := check(randomManifest(rand.New(rand.NewSource(seed)), int(n))); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tinyManifest is the benchmark's tiny collection as a manifest: 3 000 paths
// tiny/d%03d/f%05d.txt of 200–2 000 bytes, random sums.
func tinyManifest() []ManifestEntry {
	rng := rand.New(rand.NewSource(1))
	m := make([]ManifestEntry, 3000)
	for i := range m {
		m[i] = ManifestEntry{Path: fmt.Sprintf("tiny/d%03d/f%05d.txt", i%200, i), Len: 200 + (i*997)%1801}
		rng.Read(m[i].Sum[:])
	}
	sort.Slice(m, func(i, j int) bool { return m[i].Path < m[j].Path })
	return m
}

// TestPackedManifestSize: on the benchmark's tiny shape the packed frame is at
// most 0.55× the legacy one (the 48 000 bytes of raw sums are most of what is
// left), and the short frame is the packed one less 13 bytes a file: at most
// 0.2× the legacy one.
func TestPackedManifestSize(t *testing.T) {
	m := tinyManifest()
	packed, fits := packManifest(m, md4.Size)
	short, fitsShort := packManifest(m, shortSum)
	legacy := encodeManifest(m)
	ratio, shortRatio := float64(len(packed))/float64(len(legacy)), float64(len(short))/float64(len(legacy))
	t.Logf("3 000 tiny entries: short %d B, packed %d B, legacy %d B (%.3f×, %.3f×)", len(short), len(packed), len(legacy), shortRatio, ratio)
	if !fits || ratio > 0.55 {
		t.Fatalf("packed %d B against legacy %d B (%.3f×, fits %v), want ≤ 0.55×", len(packed), len(legacy), ratio, fits)
	}
	if !fitsShort || shortRatio > 0.2 || len(packed)-len(short) != (md4.Size-shortSum)*len(m) {
		t.Fatalf("short %d B against packed %d B and legacy %d B (fits %v), want 13 B a file less and ≤ 0.2×", len(short), len(packed), len(legacy), fitsShort)
	}
}

// TestLongPathsFallBackToPackedSums: long paths that front-code to a few
// bytes each break the path cap of a frame whose sums are cut to 3 bytes, not
// of one whose sums are whole. Such a receiver sends MANIFEST_PACKED, as
// before MANIFEST_SHORT existed, expects no group sums, and converges.
func TestLongPathsFallBackToPackedSums(t *testing.T) {
	v1, v2 := map[string][]byte{}, map[string][]byte{}
	for i := 0; i < 300; i++ {
		p := fmt.Sprintf("%sf%05d.txt", strings.Repeat("deep/", 40), i)
		v1[p], v2[p] = []byte(p), []byte(p)
	}
	v2[strings.Repeat("deep/", 40)+"f00007.txt"] = []byte("edited")
	m := BuildManifest(v1)
	if _, fits := packManifest(m, shortSum); fits {
		t.Fatal("the short frame fits: the tree does not reach the fallback")
	}
	srv, err := NewServer(v2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	up, _ := runRecorded(t, srv, NewClient(v1))
	packed, _ := packManifest(m, md4.Size)
	if f := transcriptFrames(t, up)[1]; f.typ != wire.FrameManifestPacked || !bytes.Equal(f.payload, packed) {
		t.Fatalf("the manifest went as %s of %d bytes, want MANIFEST_PACKED of %d", wire.FrameName(f.typ), len(f.payload), len(packed))
	}
}

// TestUnpackRefusesHostile: each hostile payload is refused by the check
// meant for it, at either sum width.
func TestUnpackRefusesHostile(t *testing.T) {
	reasons := map[string]string{
		"column past its cap":           "column declares",
		"column past the alphabet":      "corrupt stream",
		"count past the payload":        "bytes of sums for 1099511627776 entries",
		"shares past the previous path": "shares 2 bytes of a 1-byte path",
		"column short of the count":     "entry 1",
		"column past the count":         "after 1 entries",
		"paths past their cap":          "paths past",
		"descending pair":               "entry 1 is not after entry 0",
	}
	for _, width := range []int{md4.Size, shortSum} {
		for name, p := range hostilePacked(width) {
			_, err := unpackManifest(p, width)
			if !errors.Is(err, errPacked) || !errors.Is(err, core.ErrProtocol) || !strings.Contains(err.Error(), reasons[name]) {
				t.Errorf("%s at width %d: %v, want errPacked naming %q", name, width, err, reasons[name])
			}
		}
	}
}

// TestPackedAnnouncementHits: a store's digest is the MANIFEST encoding's, so
// a client that announces a version and sends its list packed — not today's
// client, which sends MANIFEST_REF — is served the journal hit it would have
// been served with MANIFEST.
func TestPackedAnnouncementHits(t *testing.T) {
	v1, v2 := costTrees()
	srv := versionedServer(t, v1, v2, core.DefaultConfig())
	hello := wire.NewBuffer(16)
	hello.Uvarint(protocolVersion)
	hello.Byte(rolePull)
	hello.Byte(modeManifest)
	helloExts{announce: 1}.encode(hello)
	packed, _ := packManifest(BuildManifest(v1), md4.Size)
	conn := &scriptConn{}
	conn.script.Reset(wireBytes(t, []wireFrame{{wire.FrameHello, hello.Build()}, {wire.FrameManifestPacked, packed}}))
	// The script ends after the manifest: the session fails after its verdicts.
	if sc, _ := srv.Serve(conn); sc.JournalHits != 1 || sc.JournalMisses != 0 {
		t.Fatalf("%d hits, %d misses: a packed announcement must hit", sc.JournalHits, sc.JournalMisses)
	}
}

// TestManifestColumnIsMode0: the path column of a MANIFEST_PACKED or
// MANIFEST_SHORT payload is compressed in delta mode 0, whatever the coder's
// default: the receiver sends it before it knows the holder, and a holder that
// predates mode 2 reads no other.
func TestManifestColumnIsMode0(t *testing.T) {
	m := tinyManifest()
	for _, width := range []int{md4.Size, shortSum} {
		payload, fits := packManifest(m, width)
		if !fits {
			t.Fatalf("width %d: the tiny manifest does not fit", width)
		}
		p := wire.NewParser(payload)
		if _, err := p.Uvarint(); err != nil {
			t.Fatal(err)
		}
		col, err := p.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if _, n := binary.Uvarint(col); n <= 0 || n >= len(col) || col[n] != 0 {
			t.Fatalf("width %d: the column is not mode 0", width)
		}
	}
}
