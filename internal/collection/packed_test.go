package collection

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"msync/internal/core"
	"msync/internal/wire"
)

// randomManifest is a sorted manifest of up to n distinct entries whose paths
// mix shared directories, non-ASCII names, paths that share nothing with their
// neighbour and one path of 4 KB, with lengths up to 2⁶³−1.
func randomManifest(rng *rand.Rand, n int) []ManifestEntry {
	pieces := []string{"src/", "doc/", "été/", "日本語/", "a", "Ω", "-", "x.txt", strings.Repeat("z", 4096)}
	lens := []int{0, 1, 200, 2000, 1 << 40, math.MaxInt64}
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
// the decoder's caps; otherwise the decoder refuses it with errPacked.
func TestPackedManifestRoundTrip(t *testing.T) {
	check := func(m []ManifestEntry) error {
		p, fits := packManifest(m)
		got, err := unpackManifest(p)
		switch {
		case fits && (err != nil || !sameManifest(got, m)):
			return fmt.Errorf("%d entries: a fitting frame decodes to %d entries (%v)", len(m), len(got), err)
		case !fits && !errors.Is(err, errPacked):
			return fmt.Errorf("%d entries: a frame past its caps decodes (%v)", len(m), err)
		}
		return nil
	}
	fixed := [][]ManifestEntry{
		nil,
		{{Path: "only", Len: math.MaxInt64}},
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
// left).
func TestPackedManifestSize(t *testing.T) {
	m := tinyManifest()
	packed, fits := packManifest(m)
	legacy := encodeManifest(m)
	ratio := float64(len(packed)) / float64(len(legacy))
	t.Logf("3 000 tiny entries: packed %d B, legacy %d B (%.3f×)", len(packed), len(legacy), ratio)
	if !fits || ratio > 0.55 {
		t.Fatalf("packed %d B against legacy %d B (%.3f×, fits %v), want ≤ 0.55×", len(packed), len(legacy), ratio, fits)
	}
}

// TestUnpackRefusesHostile: each hostile payload is refused by the check
// meant for it.
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
	for name, p := range hostilePacked() {
		_, err := unpackManifest(p)
		if !errors.Is(err, errPacked) || !errors.Is(err, core.ErrProtocol) || !strings.Contains(err.Error(), reasons[name]) {
			t.Errorf("%s: %v, want errPacked naming %q", name, err, reasons[name])
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
	packed, _ := packManifest(BuildManifest(v1))
	conn := &scriptConn{}
	conn.script.Reset(wireBytes(t, []wireFrame{{wire.FrameHello, hello.Build()}, {wire.FrameManifestPacked, packed}}))
	// The script ends after the manifest: the session fails after its verdicts.
	if sc, _ := srv.Serve(conn); sc.JournalHits != 1 || sc.JournalMisses != 0 {
		t.Fatalf("%d hits, %d misses: a packed announcement must hit", sc.JournalHits, sc.JournalMisses)
	}
}
