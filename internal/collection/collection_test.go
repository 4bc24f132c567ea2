package collection

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/gtest"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

func TestManifestRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		files := map[string][]byte{}
		for i := 0; i < int(n%20); i++ {
			files[corpusPath(rng, i)] = corpus.RandomText(rng, rng.Intn(100))
		}
		m := BuildManifest(files)
		got, err := decodeManifest(encodeManifest(m))
		if err != nil || len(got) != len(m) {
			return false
		}
		for i := range m {
			if got[i] != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func corpusPath(rng *rand.Rand, i int) string {
	dirs := []string{"src", "doc", "web", "a/b"}
	return dirs[rng.Intn(len(dirs))] + "/" + string(rune('a'+i%26)) + ".txt"
}

func TestManifestSorted(t *testing.T) {
	m := BuildManifest(map[string][]byte{"z": nil, "a": nil, "m": nil})
	if m[0].Path != "a" || m[1].Path != "m" || m[2].Path != "z" {
		t.Fatalf("not sorted: %v", m)
	}
}

func TestManifestDecodeErrors(t *testing.T) {
	m := BuildManifest(map[string][]byte{"hello": []byte("world")})
	raw := encodeManifest(m)
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := decodeManifest(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	configs := []core.Config{
		core.DefaultConfig(),
		core.BasicConfig(),
		core.OneShotConfig(512),
	}
	for i, cfg := range configs {
		for _, g := range []grant{grantNone, grantStream, grantDeltaStream} {
			got, granted, err := decodeConfig(encodeConfig(&cfg, g))
			if err != nil {
				t.Fatalf("config %d: %v", i, err)
			}
			if got != cfg || granted != g {
				t.Fatalf("config %d: got %+v (grant %d) want %+v (grant %d)", i, got, granted, cfg, g)
			}
		}
	}
}

// TestConfigPresetsKeepTheirBytes: the paper's presets encode to the bytes
// they encoded to while two-phase rounds, local hashes and the hash family
// were still settable, so verdict frames, ConfigFingerprint and warm
// signature caches are unchanged by their retirement. The default's row holds
// the one-batch default, whose fingerprint differs from the paper config's
// that was the default before it.
func TestConfigPresetsKeepTheirBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		hex  string
	}{
		{"default", core.DefaultConfig(), "801080012008060a2814010208020001000080028020050400000000"},
		{"paper", core.PaperConfig(), "801080011008060a2814020408020101000080028020050400000000"},
		{"basic", core.BasicConfig(), "801080010008060a2810010101020001000080028020050400000000"},
		{"oneshot512", core.OneShotConfig(512), "8004800400080c0a2810010101020001000080028020050400000000"},
	} {
		if got := hex.EncodeToString(encodeConfig(&tc.cfg, grantNone)); got != tc.hex {
			t.Errorf("%s encodes as %s, want %s", tc.name, got, tc.hex)
		}
	}
}

// TestConfigRefusesRetiredTechniques: a config from a peer that switches on
// two-phase rounds, local hashes, adaptive early stopping or a hash family
// other than the polynomial one is refused with errRetiredConfig; the same
// config with them off decodes.
func TestConfigRefusesRetiredTechniques(t *testing.T) {
	const (
		head = "801080011008060a2814020408020101" // PaperConfig through Decomposable
		mid  = "800280200504000000"               // local radius, range, slack; MaxAlternates; adaptive, its minimum block and factor
		// The adaptive switch on, with a 1024-byte minimum block and factor 4.
		adaptive = "80028020050401" + "8008" + "808080808080808840"
	)
	family := func(name string) string { return fmt.Sprintf("%02x", len(name)) + hex.EncodeToString([]byte(name)) }
	for _, tc := range []struct {
		name, hex string
		refused   bool
	}{
		{"two-phase", head + "0100" + mid + family(""), true},
		{"local", head + "0001" + mid + family(""), true},
		{"adler", head + "0000" + mid + family("adler"), true},
		{"unknown-family", head + "0000" + mid + family("xxh3"), true},
		{"adaptive", head + "0000" + adaptive + family(""), true},
		{"default", head + "0000" + mid + family(""), false},
		{"poly", head + "0000" + mid + family("poly"), false},
	} {
		raw, _ := hex.DecodeString(tc.hex)
		got, _, err := decodeConfig(raw)
		if tc.refused != errors.Is(err, errRetiredConfig) {
			t.Errorf("%s: decodeConfig error %v, refused want %v", tc.name, err, tc.refused)
		}
		if tc.refused && !errors.Is(err, core.ErrProtocol) {
			t.Errorf("%s: %v is not a protocol error", tc.name, err)
		}
		if !tc.refused && (err != nil || got != core.PaperConfig()) {
			t.Errorf("%s: decoded %+v, %v; want PaperConfig", tc.name, got, err)
		}
	}
}

func TestConfigDecodeTruncation(t *testing.T) {
	cfg := core.DefaultConfig()
	raw := encodeConfig(&cfg, grantNone)
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := decodeConfig(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// runSession runs one full sync over a pipe and returns both sides' costs.
func runSession(t *testing.T, serverFiles, clientFiles map[string][]byte, cfg core.Config) (*Result, *stats.Costs) {
	t.Helper()
	srv, err := NewServer(serverFiles, cfg)
	if err != nil {
		t.Fatal(err)
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
	res, err := NewClient(clientFiles).Sync(b)
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

// TestCostsAgreeBetweenSides: both endpoints account identical totals.
func TestCostsAgreeBetweenSides(t *testing.T) {
	v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
	res, serverCosts := runSession(t, v2.Map(), v1.Map(), core.DefaultConfig())
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("client total %d != server total %d", res.Costs.Total(), serverCosts.Total())
	}
	for _, d := range []stats.Direction{stats.C2S, stats.S2C} {
		if res.Costs.DirTotal(d) != serverCosts.DirTotal(d) {
			t.Fatalf("direction %v disagrees: %d vs %d",
				d, res.Costs.DirTotal(d), serverCosts.DirTotal(d))
		}
	}
	if res.Costs.Roundtrips != serverCosts.Roundtrips {
		t.Fatalf("roundtrips disagree: %d vs %d", res.Costs.Roundtrips, serverCosts.Roundtrips)
	}
}

// TestDeepVerificationBatches drives the multi-batch confirm/batch frames.
func TestDeepVerificationBatches(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Verify = gtest.Config{Batches: 4, GroupSize: 16, TrustedGroupSize: 16, SplitFactor: 2, RetryAlternates: 1}
	v1, v2 := corpus.GCCProfile(0.05).Generate(8)
	res, _ := runSession(t, v2.Map(), v1.Map(), cfg)
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
}

// TestServerErrorFrame: a client speaking a wrong version gets a clean
// error, not a hang.
func TestServerErrorFrame(t *testing.T) {
	srv, err := NewServer(map[string][]byte{"a": []byte("data")}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		srv.Serve(a)
	}()
	fw := wire.NewFrameWriter(b)
	hb := wire.NewBuffer(4)
	hb.Uvarint(999) // unsupported version
	fw.WriteFrame(wire.FrameHello, hb.Build())
	fw.WriteFrame(wire.FrameManifest, encodeManifest(nil))
	fw.Flush()
	fr := wire.NewFrameReader(b)
	ft, payload, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.FrameError {
		t.Fatalf("got frame %s (%q), want ERROR", wire.FrameName(ft), payload)
	}
	b.Close()
	wg.Wait()
}

// TestConnectionCutMidSession: severing the link must surface errors on
// both sides without hanging.
func TestConnectionCutMidSession(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.05).Generate(12)
	srv, err := NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	// The link dies after the server's first 200 bytes (mid-verdicts/rounds).
	faulty := transport.NewFaultConn(a).SeverAfter(200)
	var wg sync.WaitGroup
	var serverErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, serverErr = srv.Serve(faulty)
	}()
	_, clientErr := NewClient(v1.Map()).Sync(b)
	b.Close()
	wg.Wait()
	if serverErr == nil && clientErr == nil {
		t.Fatal("neither side noticed the dead link")
	}
}

// TestUnchangedCollectionIsNearlyFree: fingerprints must keep the cost to
// the manifest exchange.
func TestUnchangedCollectionIsNearlyFree(t *testing.T) {
	v1, _ := corpus.GCCProfile(0.1).Generate(3)
	res, _ := runSession(t, v1.Map(), v1.Map(), core.DefaultConfig())
	if err := VerifyAgainst(res.Files, v1.Map()); err != nil {
		t.Fatal(err)
	}
	perFile := float64(res.Costs.Total()) / float64(len(v1.Files))
	if perFile > 80 {
		t.Fatalf("unchanged collection costs %.1f bytes/file", perFile)
	}
	if res.Costs.FilesUnchanged != len(v1.Files) {
		t.Fatalf("FilesUnchanged = %d, want %d", res.Costs.FilesUnchanged, len(v1.Files))
	}
}

func TestVerifyAgainst(t *testing.T) {
	a := map[string][]byte{"x": []byte("1"), "y": []byte("2")}
	if err := VerifyAgainst(a, a); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainst(map[string][]byte{"x": []byte("1")}, a); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := VerifyAgainst(map[string][]byte{"x": []byte("1"), "y": []byte("!")}, a); err == nil {
		t.Fatal("wrong content accepted")
	}
	if err := VerifyAgainst(map[string][]byte{"x": []byte("1"), "z": []byte("2")}, a); err == nil {
		t.Fatal("renamed file accepted")
	}
}

// TestBinaryContent: collections are byte sets, not text.
func TestBinaryContent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	old := corpus.RandomText(rng, 40_000)
	cur := append([]byte(nil), old...)
	copy(cur[20_000:], corpus.RandomText(rng, 500))
	res, _ := runSession(t, map[string][]byte{"bin": cur}, map[string][]byte{"bin": old}, core.DefaultConfig())
	if !bytes.Equal(res.Files["bin"], cur) {
		t.Fatal("binary mismatch")
	}
}

func TestFrameOverheadCounts(t *testing.T) {
	if frameOverhead(0) != 2 {
		t.Fatal("empty frame")
	}
	if frameOverhead(127) != 2 || frameOverhead(128) != 3 || frameOverhead(1<<14) != 4 {
		t.Fatal("varint sizing")
	}
}

// TestPerFileAttribution: per-file byte attribution covers the synced files
// and stays below the session total.
func TestPerFileAttribution(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.08).Generate(61)
	res, _ := runSession(t, v2.Map(), v1.Map(), core.DefaultConfig())
	if len(res.PerFile) != res.Costs.FilesSynced {
		t.Fatalf("PerFile has %d entries, %d files synced", len(res.PerFile), res.Costs.FilesSynced)
	}
	var sum int64
	for path, n := range res.PerFile {
		if n <= 0 {
			t.Fatalf("%s attributed %d bytes", path, n)
		}
		sum += n
	}
	if sum > res.Costs.Total() {
		t.Fatalf("attributed %d > session total %d", sum, res.Costs.Total())
	}
	t.Logf("attributed %d of %d total bytes across %d files", sum, res.Costs.Total(), len(res.PerFile))
}
