package rolling

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestRollEqualsRecompute: sliding the window must equal hashing from
// scratch at every position.
func TestRollEqualsRecompute(t *testing.T) {
	p := Default()
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		window := int(wRaw%60) + 1
		data := randBytes(rng, window+200)
		roller := p.NewRoller(window)
		roller.Init(data)
		for i := 0; i+window < len(data); i++ {
			if roller.Sum() != p.Hash(data[i:i+window]) {
				return false
			}
			roller.Roll(data[i], data[i+window])
		}
		return roller.Sum() == p.Hash(data[len(data)-window:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestComposeDecompose: H(XY) from H(X), H(Y); and H(Y) back from H(XY), H(X).
func TestComposeDecompose(t *testing.T) {
	p := Default()
	f := func(x, y []byte) bool {
		hx, hy := p.Hash(x), p.Hash(y)
		hxy := p.Hash(append(append([]byte{}, x...), y...))
		return p.Compose(hx, hy, len(y)) == hxy && p.DeriveRight(hxy, 64, hx, len(y)) == hy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitPrefixDecomposability: the low k bits of a decomposed hash must be
// derivable from the low k bits of the inputs — the property that lets the
// protocol ship truncated sibling hashes.
func TestBitPrefixDecomposability(t *testing.T) {
	p := Default()
	f := func(x, y []byte, kRaw uint8) bool {
		k := uint(kRaw%64) + 1
		hx, hy := p.Hash(x), p.Hash(y)
		hxy := p.Compose(hx, hy, len(y))
		// Derive low-k of H(Y) using ONLY low-k inputs.
		return p.DeriveRight(Truncate(hxy, k), k, Truncate(hx, k), len(y)) == Truncate(hy, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	if Truncate(0xFFFFFFFFFFFFFFFF, 4) != 0xF {
		t.Fatal("4-bit")
	}
	if Truncate(0x123, 64) != 0x123 {
		t.Fatal("64-bit identity")
	}
	if Truncate(0xFF, 70) != 0xFF {
		t.Fatal("over-64 clamps to identity")
	}
}

// TestLowBitDistribution: truncated hashes over structured input must not
// collide catastrophically (this is why the byte-diffusion table exists).
func TestLowBitDistribution(t *testing.T) {
	p := Default()
	const bits = 12
	counts := make(map[uint64]int)
	data := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		for j := range data {
			data[j] = byte((i + j) % 7) // highly structured
		}
		data[i%64] = byte(i)
		counts[Truncate(p.Hash(data), bits)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// 4096 samples in 4096 buckets: worst bucket should stay small.
	if max > 24 {
		t.Fatalf("worst 12-bit bucket has %d entries (poor distribution)", max)
	}
}

func TestNewPolyRequiresOddBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even base accepted")
		}
	}()
	NewPoly(2, 1)
}

func TestRollerWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	Default().NewRoller(0)
}

// TestAdlerRollEqualsSum mirrors the rsync checksum's rolling property.
func TestAdlerRollEqualsSum(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		window := int(wRaw%100) + 1
		data := randBytes(rng, window+150)
		ad := NewAdler(window)
		ad.Init(data)
		for i := 0; i+window < len(data); i++ {
			if ad.Sum() != AdlerSum(data[i:i+window]) {
				return false
			}
			ad.Roll(data[i], data[i+window])
		}
		return ad.Sum() == AdlerSum(data[len(data)-window:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAdlerDetectsChanges(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog")
	b := append([]byte(nil), a...)
	b[10] ^= 1
	if AdlerSum(a) == AdlerSum(b) {
		t.Fatal("single-bit flip not detected")
	}
	// Permutation weakness is expected of Adler (paper §5.4 mentions it):
	// the 'a' component is order-independent, the 'b' component is not.
	c := []byte("ab")
	d := []byte("ba")
	if AdlerSum(c) == AdlerSum(d) {
		t.Fatal("adjacent swap collided in both components")
	}
}

// TestInitAtEqualsRolledInit: seeding a roller mid-buffer must land in the
// same state as initializing at the start and rolling forward — for both
// families, at several offsets. This is the invariant parallel shard scans
// rely on.
func TestInitAtEqualsRolledInit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randBytes(rng, 4096)
	for _, name := range []string{"poly", "adler"} {
		fam, err := FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 16, 128} {
			rolled := fam.Roller(window)
			rolled.Init(data)
			for pos := 0; pos+window <= len(data); pos++ {
				if pos%257 == 0 { // sample offsets, keep the test fast
					seeded := fam.Roller(window)
					seeded.InitAt(data, pos)
					if seeded.Sum() != rolled.Sum() {
						t.Fatalf("%s w=%d pos=%d: InitAt %x != rolled %x",
							name, window, pos, seeded.Sum(), rolled.Sum())
					}
				}
				if pos+window < len(data) {
					rolled.Roll(data[pos], data[pos+window])
				}
			}
		}
	}
}

// TestFillEqualsRoll: Fill in chunks of any length, across calls and up to the
// last window of data, yields exactly the hashes Sum and Roll yield one
// position at a time — both families, from the start and from an InitAt seed.
func TestFillEqualsRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := randBytes(rng, 3000)
	for _, name := range []string{"poly", "adler"} {
		fam, err := FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 7, 128, len(data) - 1, len(data)} {
			positions := len(data) - window + 1
			want := make([]uint64, positions)
			ref := fam.Roller(window)
			ref.Init(data)
			for pos := range want {
				want[pos] = ref.Sum()
				if pos+1 < positions {
					ref.Roll(data[pos], data[pos+window])
				}
			}
			for _, start := range []int{0, positions / 3, positions - 1} {
				for _, chunk := range []int{1, 2, 5, 256, positions} {
					r := fam.Roller(window)
					r.InitAt(data, start)
					got := make([]uint64, chunk)
					for pos := start; pos < positions; pos += chunk {
						n := min(chunk, positions-pos)
						r.Fill(got[:n], data, pos)
						for i, h := range got[:n] {
							if h != want[pos+i] {
								t.Fatalf("%s w=%d start=%d chunk=%d pos=%d: Fill %x, rolled %x",
									name, window, start, chunk, pos+i, h, want[pos+i])
							}
						}
					}
				}
			}
		}
	}
}

// FuzzFillEqualsRoll checks the same equality on arbitrary data, window,
// start and chunk length.
func FuzzFillEqualsRoll(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(5), uint16(3), uint8(4), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(8), uint16(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, window, start uint16, chunk uint8, adler bool) {
		if len(data) == 0 {
			return
		}
		w := int(window)%len(data) + 1
		positions := len(data) - w + 1
		lo := int(start) % positions
		step := int(chunk) + 1
		var fam Family = Default()
		if adler {
			fam = DefaultDecAdler()
		}
		ref, r := fam.Roller(w), fam.Roller(w)
		ref.InitAt(data, lo)
		r.InitAt(data, lo)
		got := make([]uint64, step)
		for pos := lo; pos < positions; pos += step {
			n := min(step, positions-pos)
			r.Fill(got[:n], data, pos)
			for i, h := range got[:n] {
				if h != ref.Sum() {
					t.Fatalf("w=%d pos=%d: Fill %x, rolled %x", w, pos+i, h, ref.Sum())
				}
				if pos+i+1 < positions {
					ref.Roll(data[pos+i], data[pos+i+w])
				}
			}
		}
	})
}

func BenchmarkPolyHash4K(b *testing.B) {
	p := Default()
	data := randBytes(rand.New(rand.NewSource(1)), 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		_ = p.Hash(data)
	}
}

func BenchmarkPolyRoll(b *testing.B) {
	p := Default()
	data := randBytes(rand.New(rand.NewSource(1)), 1<<16)
	r := p.NewRoller(512)
	r.Init(data)
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		j := i % (len(data) - 513)
		r.Roll(data[j], data[j+512])
	}
}

func BenchmarkAdlerRoll(b *testing.B) {
	data := randBytes(rand.New(rand.NewSource(1)), 1<<16)
	ad := NewAdler(512)
	ad.Init(data)
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		j := i % (len(data) - 513)
		ad.Roll(data[j], data[j+512])
	}
}

// BenchmarkWindowScan measures full windowed-scan throughput (Init once,
// then every window hash of the buffer) at the protocol's extreme block
// sizes — the unit of work that scan sharding splits across workers. The
// plain arm is the per-position interface (Sum and Roll at every byte); the
// "-bulk" arm is what the client's scan kernel runs, Fill in 256-hash chunks.
// Comparing the per-byte rates at b_min and b_max against BenchmarkSeedShard
// quantifies the overlap cost a shard pays to re-seed its window.
func BenchmarkWindowScan(b *testing.B) {
	data := randBytes(rand.New(rand.NewSource(3)), 1<<20)
	for _, tc := range []struct {
		fam    string
		window int
	}{
		{"poly", 128}, {"poly", 2048}, {"adler", 128}, {"adler", 2048},
	} {
		fam, err := FamilyByName(tc.fam)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-b%d", tc.fam, tc.window), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var sink uint64
			for i := 0; i < b.N; i++ {
				r := fam.Roller(tc.window)
				r.Init(data)
				for pos := 0; pos+tc.window < len(data); pos++ {
					sink ^= r.Sum()
					r.Roll(data[pos], data[pos+tc.window])
				}
				sink ^= r.Sum()
			}
			benchSink = sink
		})
		b.Run(fmt.Sprintf("%s-b%d-bulk", tc.fam, tc.window), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var sink uint64
			var chunk [256]uint64
			positions := len(data) - tc.window + 1
			for i := 0; i < b.N; i++ {
				r := fam.Roller(tc.window)
				r.Init(data)
				for pos := 0; pos < positions; pos += len(chunk) {
					hs := chunk[:min(len(chunk), positions-pos)]
					r.Fill(hs, data, pos)
					for _, h := range hs {
						sink ^= h
					}
				}
			}
			benchSink = sink
		})
	}
}

// BenchmarkSeedShard measures the one-off InitAt cost a shard pays at its
// start (the blockSize-1 overlap read), per seeding.
func BenchmarkSeedShard(b *testing.B) {
	data := randBytes(rand.New(rand.NewSource(4)), 1<<20)
	for _, window := range []int{128, 2048} {
		b.Run(fmt.Sprintf("poly-b%d", window), func(b *testing.B) {
			r := Default().NewRoller(window)
			for i := 0; i < b.N; i++ {
				r.InitAt(data, (i*4096+1)%(len(data)-window))
			}
			benchSink = r.Sum()
		})
	}
}

var benchSink uint64
