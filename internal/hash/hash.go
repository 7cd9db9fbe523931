// Package hash provides the hashing primitives used throughout the memory
// cloud: 64-bit key mixing, p-bit trunk addressing, and string hashing for
// symbol interning.
//
// Trinity addresses a key-value pair in two steps (paper §3): the 64-bit
// key is first hashed to a p-bit trunk number i ∈ [0, 2^p), which selects a
// slot in the addressing table (yielding a machine); the key is then hashed
// again inside the trunk's own hash table to find the cell's offset and
// size. The trunk-selection hash lives here, seeded so that it is
// independent of the plain mixer; the in-trunk table is a Go map with its
// own hash (internal/trunk).
package hash

// Mix64 is a strong 64-bit finalizer (the splitmix64 finalizer, also used
// as MurmurHash3's fmix64 variant). It is a bijection on uint64, so
// distinct keys can never collide after mixing.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// trunkSeed separates the trunk-selection hash from plain Mix64.
const trunkSeed = 0x9e3779b97f4a7c15

// TrunkHash maps a 64-bit key to a p-bit trunk number in [0, 2^p).
// p must be in [0, 32].
func TrunkHash(key uint64, p uint) uint32 {
	if p == 0 {
		return 0
	}
	return uint32(Mix64(key^trunkSeed) >> (64 - p))
}

// String hashes a string to a 64-bit value using the FNV-1a construction
// followed by Mix64 to strengthen avalanche on short inputs. It is used to
// derive stable cell IDs from external names (e.g. RDF IRIs).
func String(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Mix64(h)
}

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64)
// used by workload generators and tests. The zero value is NOT valid; use
// NewRNG. It is deliberately not safe for concurrent use — generators that
// run in parallel each own an RNG seeded from a parent stream.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams on all platforms.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Intn returns a value uniform in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hash: Intn called with n <= 0")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}
