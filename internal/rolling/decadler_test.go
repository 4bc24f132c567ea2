package rolling

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecAdlerRollEqualsRecompute(t *testing.T) {
	d := DefaultDecAdler()
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		window := int(wRaw%60) + 1
		data := randBytes(rng, window+200)
		roller := d.Roller(window)
		roller.Init(data)
		for i := 0; i+window < len(data); i++ {
			if roller.Sum() != d.Hash(data[i:i+window]) {
				return false
			}
			roller.Roll(data[i], data[i+window])
		}
		return roller.Sum() == d.Hash(data[len(data)-window:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestComposeBothFamilies: Compose(H(X), H(Y), |Y|) = H(XY), empty halves
// included.
func TestComposeBothFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, fam := range []Family{Default(), DefaultDecAdler()} {
		for trial := 0; trial < 500; trial++ {
			xy := randBytes(rng, rng.Intn(600))
			cut := rng.Intn(len(xy) + 1)
			got := fam.Compose(fam.Hash(xy[:cut]), fam.Hash(xy[cut:]), len(xy)-cut)
			if want := fam.Hash(xy); got != want {
				t.Fatalf("%s |X|=%d |Y|=%d: Compose %x, Hash %x", fam.Name(), cut, len(xy)-cut, got, want)
			}
		}
	}
}

// TestDecAdlerDeriveRight: the bit-prefix decomposition property at every
// truncation width, for both families through the same interface.
func TestDeriveRightBothFamilies(t *testing.T) {
	for _, fam := range []Family{Default(), DefaultDecAdler()} {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			f := func(x, y []byte, kRaw uint8) bool {
				if len(y) == 0 {
					y = []byte{0}
				}
				k := uint(kRaw%64) + 1
				parent := fam.Hash(append(append([]byte{}, x...), y...))
				left := fam.Hash(x)
				right := fam.Hash(y)
				got := fam.DeriveRight(parent, k, left, len(y))
				return got == Truncate(right, k)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeriveRightTruncatedInputs: derivation must work when parent and left
// are ALREADY truncated (the wire situation).
func TestDeriveRightTruncatedInputs(t *testing.T) {
	for _, fam := range []Family{Default(), DefaultDecAdler()} {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			f := func(x, y []byte, kRaw uint8) bool {
				if len(y) == 0 {
					y = []byte{1}
				}
				k := uint(kRaw%48) + 1
				parentT := Truncate(fam.Hash(append(append([]byte{}, x...), y...)), k)
				leftT := Truncate(fam.Hash(x), k)
				got := fam.DeriveRight(parentT, k, leftT, len(y))
				return got == Truncate(fam.Hash(y), k)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInterleaveCompact(t *testing.T) {
	f := func(a, b uint32) bool {
		v := interleave(a, b)
		ga, gb := deinterleave(v)
		return ga == a && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecAdlerTruncationSeesBothComponents: low-bit truncations must depend
// on byte ORDER (plain Adler's A-sum does not), which is what the
// interleaving buys.
func TestDecAdlerTruncationSeesBothComponents(t *testing.T) {
	d := DefaultDecAdler()
	a := d.HashBitsAdler([]byte("abcdef"), 8)
	b := d.HashBitsAdler([]byte("fedcba"), 8)
	if a == b {
		t.Fatal("8-bit truncation is order-insensitive")
	}
}

// HashBitsAdler is a tiny test helper: low-bits of the DecAdler hash.
func (d *DecAdler) HashBitsAdler(data []byte, bits uint) uint64 {
	return Truncate(d.Hash(data), bits)
}

func TestDecAdlerDistribution(t *testing.T) {
	d := DefaultDecAdler()
	const bits = 12
	counts := make(map[uint64]int)
	data := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		for j := range data {
			data[j] = byte((i + j) % 7)
		}
		data[i%64] = byte(i)
		counts[Truncate(d.Hash(data), bits)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Adler-style sums are weaker than the polynomial family at short
	// truncations (the paper notes these trade-offs); we only require the
	// distribution to be non-degenerate. The protocol's verification layer
	// absorbs the extra false candidates.
	if max > 96 {
		t.Fatalf("worst 12-bit bucket has %d entries", max)
	}
}

func TestFamilyByName(t *testing.T) {
	for name, want := range map[string]string{"": "poly", "poly": "poly", "adler": "adler"} {
		f, err := FamilyByName(name)
		if err != nil || f.Name() != want {
			t.Fatalf("FamilyByName(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := FamilyByName("sha0"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestDecAdlerRollerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	DefaultDecAdler().Roller(0)
}
