// Package rng provides deterministic pseudo-random number generation for
// the synthetic workloads and behaviour models.
//
// Reproducibility is a hard requirement of the study: INIP(T), AVEP and
// INIP(train) runs of the same benchmark must see exactly the same input
// stream, so every source of randomness is derived from an explicit
// 64-bit seed, and seeds themselves are derived from stable strings
// (benchmark name, input name) via an FNV-style hash. The package has no
// dependency on math/rand so that the stream is stable across Go releases.
package rng

// splitmix64 advances the given state and returns the next 64-bit output.
// It is the standard SplitMix64 generator, used both directly for seed
// derivation and to seed the main xoshiro generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** pseudo-random generator.
// The zero value is not usable; construct with New or NewFromString.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// NewFromString returns a Source seeded from a stable hash of s.
func NewFromString(s string) *Source {
	return New(HashString(s))
}

// HashString maps a string to a 64-bit seed using the FNV-1a hash followed
// by a SplitMix64 finalizer to spread low-entropy inputs.
func HashString(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix64(&h)
}

// Reseed resets the generator state from seed, as if freshly constructed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; with splitmix64
	// outputs that is astronomically unlikely, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 bits of the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 bits of the stream.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
