package huffman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"msync/internal/alloctest"
	"msync/internal/bitio"
)

// encodeDecodeOnce runs a full build/table/encode/decode cycle over a symbol
// stream drawn from freq.
func encodeDecodeOnce(t *testing.T, freq []int64, stream []int) {
	t.Helper()
	code, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	w := &bitio.Writer{}
	code.WriteTable(w)
	for _, s := range stream {
		if err := code.Encode(w, s); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	dec, err := ReadTable(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range stream {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

func TestRoundTripSimple(t *testing.T) {
	freq := []int64{10, 5, 2, 1, 0, 7}
	stream := []int{0, 1, 2, 3, 5, 0, 0, 1, 5, 2}
	encodeDecodeOnce(t, freq, stream)
}

func TestSingleSymbol(t *testing.T) {
	freq := []int64{0, 0, 42, 0}
	encodeDecodeOnce(t, freq, []int{2, 2, 2})
	// A one-symbol alphabet and nothing coded: the shortest table there is,
	// 22 bits in 3 bytes.
	encodeDecodeOnce(t, []int64{1}, nil)
}

func TestEmptyCode(t *testing.T) {
	code, err := Build([]int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := code.Encode(&bitio.Writer{}, 0); err == nil {
		t.Fatal("encoding with empty code should fail")
	}
	// Table round-trips even when empty.
	w := &bitio.Writer{}
	code.WriteTable(w)
	dec, err := ReadTable(bitio.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bitio.NewReader(nil)); err != ErrNoSymbols {
		t.Fatalf("err = %v", err)
	}
}

// TestQuickRoundTrip: random frequency tables and streams survive the cycle.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		freq := make([]int64, n)
		var used []int
		for i := range freq {
			if rng.Intn(3) > 0 {
				freq[i] = int64(rng.Intn(10000) + 1)
				used = append(used, i)
			}
		}
		if len(used) == 0 {
			return true
		}
		stream := make([]int, 200)
		for i := range stream {
			stream[i] = used[rng.Intn(len(used))]
		}
		code, err := Build(freq)
		if err != nil {
			return false
		}
		w := &bitio.Writer{}
		code.WriteTable(w)
		for _, s := range stream {
			if code.Encode(w, s) != nil {
				return false
			}
		}
		r := bitio.NewReader(w.Bytes())
		dec, err := ReadTable(r)
		if err != nil {
			return false
		}
		for _, want := range stream {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestNearEntropy: the code length must approach the source entropy.
func TestNearEntropy(t *testing.T) {
	freq := []int64{900, 50, 25, 15, 10}
	total := int64(0)
	for _, f := range freq {
		total += f
	}
	entropy := 0.0
	for _, f := range freq {
		p := float64(f) / float64(total)
		entropy -= p * math.Log2(p)
	}
	code, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	avg := 0.0
	for s, f := range freq {
		avg += float64(f) / float64(total) * float64(code.Length(s))
	}
	if avg > entropy+1 {
		t.Fatalf("avg code length %.3f exceeds entropy %.3f + 1", avg, entropy)
	}
}

// TestExtremeSkew: Fibonacci-like frequencies force deep trees; the flatten
// loop must cap lengths at MaxCodeLen.
func TestExtremeSkew(t *testing.T) {
	freq := make([]int64, 64)
	a, b := int64(1), int64(1)
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
		if a < 0 { // overflow guard
			a = 1 << 62
		}
	}
	code, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	for s := range freq {
		if code.Length(s) > MaxCodeLen {
			t.Fatalf("symbol %d length %d > max", s, code.Length(s))
		}
		if code.Length(s) == 0 {
			t.Fatalf("symbol %d lost its code", s)
		}
	}
	encodeDecodeOnce(t, freq, []int{0, 30, 63, 1, 62})
}

func TestTooManySymbols(t *testing.T) {
	if _, err := Build(make([]int64, MaxSymbols+1)); err == nil {
		t.Fatal("oversized alphabet accepted")
	}
}

func TestBadTables(t *testing.T) {
	// Length exceeding MaxCodeLen.
	w := &bitio.Writer{}
	w.WriteBits(1, 16) // one symbol
	w.WriteBits(50, 6) // bad length (>32 means 50&63, write 50)
	if _, err := ReadTable(bitio.NewReader(w.Bytes())); err == nil {
		t.Fatal("bad length accepted")
	}
	// Zero-run overrunning the symbol count.
	w = &bitio.Writer{}
	w.WriteBits(2, 16)
	w.WriteBits(0, 6)
	w.WriteBits(200, 8) // run of 201 > 2 symbols
	if _, err := ReadTable(bitio.NewReader(w.Bytes())); err == nil {
		t.Fatal("overrunning zero-run accepted")
	}
	// Truncated table.
	if _, err := ReadTable(bitio.NewReader([]byte{0x00})); err == nil {
		t.Fatal("truncated table accepted")
	}
}

// TestReadTableBoundedByInput: a symbol count the bits cannot cover is
// refused having cost no more than the input — 65 535 declared in a 26-byte
// input used to cost 64 KB — and the densest legal table, 65 280 unused
// symbols in 255 zero runs, costs what its 449 bytes could hold, not a byte
// per symbol.
func TestReadTableBoundedByInput(t *testing.T) {
	hostile := append([]byte{0xFF, 0xFF}, make([]byte, 24)...)
	w := &bitio.Writer{}
	w.WriteBits(255*256, 16)
	for range 255 {
		w.WriteBits(0, 6)
		w.WriteBits(255, 8)
	}
	dense := w.Bytes()
	got := alloctest.BytesPerOp(5, func() {
		if _, err := ReadTable(bitio.NewReader(hostile)); err == nil {
			t.Fatalf("65 535 symbols in %d bytes: read", len(hostile))
		}
		if _, err := ReadTable(bitio.NewReader(dense)); err != nil {
			t.Fatalf("65 280 unused symbols in %d bytes: %v", len(dense), err)
		}
	})
	if ceiling := uint64(32 * (len(hostile) + len(dense))); got > ceiling {
		t.Errorf("reading both tables cost %d B, ceiling %d", got, ceiling)
	}
}

func TestKraftViolation(t *testing.T) {
	// Three codes of length 1 violate Kraft; NewDecoder must reject.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("Kraft violation accepted")
	}
}

func TestDecodeGarbage(t *testing.T) {
	dec, err := NewDecoder([]uint8{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// All-ones stream long enough to overrun max length without a match is
	// impossible for a complete code; instead test truncated input.
	r := bitio.NewReader(nil)
	if _, err := dec.Decode(r); err == nil {
		t.Fatal("decode on empty input succeeded")
	}
}
