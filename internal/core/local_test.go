package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/stats"
)

// mutate applies nEdits clustered random edits (insert/delete/replace) to a
// copy of data, the change model the paper's workloads exhibit.
func mutate(data []byte, nEdits, maxEdit int, rng *rand.Rand) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < nEdits; i++ {
		if len(out) == 0 {
			out = append(out, randBytes(rng, maxEdit)...)
			continue
		}
		pos := rng.Intn(len(out))
		l := 1 + rng.Intn(maxEdit)
		switch rng.Intn(3) {
		case 0: // insert
			ins := randBytes(rng, l)
			out = append(out[:pos], append(ins, out[pos:]...)...)
		case 1: // delete
			end := pos + l
			if end > len(out) {
				end = len(out)
			}
			out = append(out[:pos], out[end:]...)
		default: // replace
			end := pos + l
			if end > len(out) {
				end = len(out)
			}
			repl := randBytes(rng, end-pos)
			copy(out[pos:end], repl)
		}
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// textLike produces compressible, structured data reminiscent of source code.
func textLike(rng *rand.Rand, n int) []byte {
	words := []string{"func", "return", "if", "err", "nil", "for", "range", "int",
		"string", "byte", "struct", "package", "import", "var", "const", "type"}
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(8) == 0 {
			buf.WriteByte('\n')
		} else {
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:n]
}

func TestSyncLocalBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := textLike(rng, 100_000)
	cur := mutate(old, 20, 50, rng)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"basic", BasicConfig()},
		{"oneshot", OneShotConfig(256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SyncLocal(old, cur, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Output, cur) {
				t.Fatalf("reconstruction mismatch")
			}
			total := res.Costs.Total()
			t.Logf("%s: %d bytes total (%.1f%% of file), %d roundtrips, harvest %.2f",
				tc.name, total, 100*float64(total)/float64(len(cur)),
				res.Costs.Roundtrips, res.Costs.HarvestRate())
			if total >= int64(len(cur)) {
				t.Errorf("sync cost %d not below file size %d", total, len(cur))
			}
		})
	}
}

func TestSyncLocalIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := textLike(rng, 50_000)
	res, err := SyncLocal(data, data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, data) {
		t.Fatal("mismatch")
	}
	if res.Costs.Total() > 2000 {
		t.Errorf("identical files cost %d bytes; want near-zero", res.Costs.Total())
	}
	t.Logf("identical: %d bytes, map s2c %d c2s %d", res.Costs.Total(),
		res.Costs.Bytes(stats.S2C, stats.PhaseMap), res.Costs.Bytes(stats.C2S, stats.PhaseMap))
}

func TestSyncLocalEmptyAndTiny(t *testing.T) {
	cases := [][2][]byte{
		{nil, nil},
		{nil, []byte("hello")},
		{[]byte("hello"), nil},
		{[]byte("hello"), []byte("world")},
		{[]byte("abc"), bytes.Repeat([]byte("abc"), 1000)},
		{bytes.Repeat([]byte("xyz"), 1000), []byte("xy")},
	}
	for i, c := range cases {
		res, err := SyncLocal(c[0], c[1], DefaultConfig())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(res.Output, c[1]) {
			t.Fatalf("case %d: mismatch", i)
		}
	}
}

// deltaModeOf is the mode byte of the encoding that ends a DELTA section of
// a file whose whole-file sum is sum: the section's bytes after the sum.
func deltaModeOf(t *testing.T, section []byte, sum [md4.Size]byte) byte {
	t.Helper()
	at := bytes.Index(section, sum[:])
	if at < 0 {
		t.Fatal("the DELTA section does not carry the file's sum")
	}
	enc := section[at+md4.Size:]
	_, n := binary.Uvarint(enc)
	if n <= 0 || n >= len(enc) {
		t.Fatal("the DELTA section's encoding has no mode byte")
	}
	return enc[n]
}

// TestEnginesWriteMode2: a server engine writes its DELTA section in delta
// mode 2 unless the holder names mode 0, and SyncLocal and BroadcastSync send
// what it writes: no older reader decodes their sections, so neither names a
// mode.
func TestEnginesWriteMode2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cur := textLike(rng, 40_000)
	old := mutate(cur, 12, 200, rng)
	sum := md4.Sum(cur)
	for _, cfg := range []Config{DefaultConfig(), OneShotConfig(512)} {
		sections := map[delta.Mode][]byte{}
		for _, m := range []delta.Mode{delta.Mode2, delta.Mode0} {
			srv, err := NewServerFile(cur, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m == delta.Mode0 {
				srv.UseDeltaMode(delta.Mode0)
			}
			cli, err := NewClientFile(old, len(cur), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, _, out := runTranscript(t, srv, cli, nil)
			if !bytes.Equal(out, cur) {
				t.Fatalf("mode %d: reconstruction wrong", m)
			}
			sections[m] = frames[len(frames)-1]
			if got := deltaModeOf(t, sections[m], sum); got != byte(m) {
				t.Fatalf("asked for mode %d, the DELTA section is mode %d", m, got)
			}
		}
		if len(sections[delta.Mode2]) == len(sections[delta.Mode0]) {
			t.Fatal("modes 0 and 2 wrote DELTA sections of one length: the checks below cannot tell them apart")
		}
		local, err := SyncLocal(old, cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := local.Costs.Bytes(stats.S2C, stats.PhaseDelta); got != int64(len(sections[delta.Mode2])) {
			t.Fatalf("SyncLocal's DELTA section is %d bytes, mode 2's %d, mode 0's %d", got, len(sections[delta.Mode2]), len(sections[delta.Mode0]))
		}
		if cfg.MaxBlockSize != cfg.MinBlockSize {
			continue // BroadcastSync takes one-shot configurations only
		}
		bc, err := BroadcastSync(cur, [][]byte{old}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := bc.PerClient[0].Bytes(stats.S2C, stats.PhaseDelta); got != int64(len(sections[delta.Mode2])) {
			t.Fatalf("BroadcastSync's DELTA section is %d bytes, mode 2's %d, mode 0's %d", got, len(sections[delta.Mode2]), len(sections[delta.Mode0]))
		}
	}
}
