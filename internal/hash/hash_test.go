package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Mix64 must be invertible; spot-check that distinct small inputs map
	// to distinct outputs and that the avalanche is strong.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	var totalFlips, trials int
	for i := uint64(1); i < 1000; i++ {
		base := Mix64(i)
		for bit := uint(0); bit < 64; bit += 7 {
			flipped := Mix64(i ^ (1 << bit))
			diff := base ^ flipped
			totalFlips += popcount(diff)
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 28 || avg > 36 {
		t.Fatalf("poor avalanche: average %.2f bits flipped, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestTrunkHashRange(t *testing.T) {
	f := func(key uint64) bool {
		for p := uint(0); p <= 16; p++ {
			h := TrunkHash(key, p)
			if uint64(h) >= uint64(1)<<p && p > 0 {
				return false
			}
			if p == 0 && h != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrunkHashBalance(t *testing.T) {
	// Sequential keys (the common cell ID pattern) must spread evenly
	// across trunks.
	const p = 6 // 64 trunks
	counts := make([]int, 1<<p)
	const n = 64000
	for key := uint64(0); key < n; key++ {
		counts[TrunkHash(key, p)]++
	}
	want := float64(n) / float64(len(counts))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("trunk %d has %d keys, want ~%.0f (±25%%)", i, c, want)
		}
	}
}

func TestStringHash(t *testing.T) {
	if String("") == String("a") {
		t.Fatal("empty and non-empty strings collide")
	}
	if String("abc") != String("abc") {
		t.Fatal("String is not deterministic")
	}
	if String("abc") == String("acb") {
		t.Fatal("permuted strings collide")
	}
	seen := make(map[uint64]string)
	words := []string{"movie", "actor", "node", "edge", "trinity", "memory",
		"cloud", "graph", "trunk", "cell", "a", "b", "ab", "ba", "aa", "bb"}
	for _, w := range words {
		h := String(w)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision between %q and %q", w, prev)
		}
		seen[h] = w
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently-seeded RNGs coincided %d times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Mix64(uint64(i))
	}
	_ = sink
}

func BenchmarkTrunkHash(b *testing.B) {
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += TrunkHash(uint64(i), 8)
	}
	_ = sink
}
