package collection

import (
	"testing"

	"msync/internal/alloctest"
	"msync/internal/core"
	"msync/internal/wire"
)

// FuzzManifestDecode: arbitrary manifest bytes must never panic.
func FuzzManifestDecode(f *testing.F) {
	f.Add(encodeManifest(BuildManifest(map[string][]byte{"a/b": []byte("x")})))
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err == nil && len(m) > 1<<20 {
			t.Fatal("implausible manifest size")
		}
	})
}

// FuzzConfigDecode: arbitrary config bytes must never panic and only yield
// validated configurations.
func FuzzConfigDecode(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(encodeConfig(&cfg))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeConfig(data)
		if err == nil {
			if verr := c.Validate(); verr != nil {
				t.Fatalf("decode accepted invalid config: %v", verr)
			}
		}
	})
}

// FuzzSessionFrames: arbitrary bytes in the peer-controlled lists of a running
// session — the index lists of ROUND_HASHES, CONFIRM, ROUND_REPLY, ACK and
// FULL, and the hello's extension trailer — never panic, never yield a list
// longer than the stream or out of order, and never allocate more than a small
// multiple of the payload, however many files the session has. A list that
// parses is also handed to the FULL handler as the answer to an ACK of exactly
// its ordinals: whatever the content streams declare, decoding costs what the
// verdicts announced.
func FuzzSessionFrames(f *testing.F) {
	f.Add(hostileFullFrame(hostileFull), uint32(12), true)
	f.Add(hostileFullFrame(hostileDecoding), uint32(12), true)
	for _, bodies := range []bool{true, false} {
		for _, p := range hostileLists(bodies) {
			if len(p) <= 1024 {
				f.Add(p, uint32(12), bodies)
				f.Add(p, uint32(1<<20), bodies)
			}
		}
	}
	hb := wire.NewBuffer(32)
	helloExts{announce: 7, mux: 16, treeCaps: treeCapSpec, mapMode: core.MapCDC}.encode(hb)
	f.Add(hb.Build(), uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, nFiles uint32, bodies bool) {
		n := int(nFiles % (1 << 24))
		var secs []section
		var err error
		got := alloctest.BytesPerOp(2, func() {
			secs, err = parseSections(data, n, bodies)
			parseHelloExts(wire.NewParser(data))
		})
		if ceiling := uint64(4<<10 + 64*len(data)); got > ceiling {
			t.Fatalf("%d bytes allocated for a %d-byte payload (ceiling %d)", got, len(data), ceiling)
		}
		if err != nil {
			return
		}
		if len(secs) > n {
			t.Fatalf("%d entries for %d files", len(secs), n)
		}
		failed := make([]int, len(secs))
		for k, s := range secs {
			if s.idx < 0 || s.idx >= n || (k > 0 && s.idx <= secs[k-1].idx) {
				t.Fatalf("entry %d: index %d out of range or order", k, s.idx)
			}
			failed[k] = s.idx
		}
		if !bodies || n > 1<<10 {
			return
		}
		// 64-byte files: a section that declares 64 and decodes costs its code
		// tables (under 4 KB), any other is refused before it costs anything.
		got = alloctest.BytesPerOp(2, func() { fullHandler(n, 64, failed, data).handle(1) })
		if ceiling := uint64(8<<10 + 128*n + 16<<10*len(secs)); got > ceiling {
			t.Fatalf("FULL handler allocated %d bytes for %d sections of %d files (ceiling %d)", got, len(secs), n, ceiling)
		}
	})
}
