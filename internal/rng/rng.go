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

import "math"

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

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a sample from the geometric distribution with support
// {0, 1, 2, ...}. For p <= 0 it returns maxGeometric; for p >= 1 it
// returns 0. The return value is capped to keep pathological parameters
// from producing unbounded loop trip counts.
func (r *Source) Geometric(p float64) int {
	const maxGeometric = 1 << 24
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return maxGeometric
	}
	// Inverse-CDF sampling would need math.Log; a direct loop is exact
	// and fast for the p values used by the workloads (p >= 1e-4).
	n := 0
	for !r.Bernoulli(p) {
		n++
		if n >= maxGeometric {
			break
		}
	}
	return n
}

// NormalApprox returns an approximately standard-normal sample using the
// sum of 12 uniforms (Irwin–Hall). Exact normality is irrelevant for the
// workloads; determinism and boundedness (|x| <= 6) are what matter.
func (r *Source) NormalApprox() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += r.Float64()
	}
	return sum - 6.0
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples from a Zipf-like distribution over [0, n) with skew s > 0,
// using inverse-CDF over precomputed weights. Use NewZipf for repeated
// sampling; this helper is for one-off draws.
func (r *Source) Zipf(n int, s float64) int {
	z := NewZipf(n, s)
	return z.Sample(r)
}

// Zipf is a sampler for a Zipf-like distribution over [0, n): element i
// has weight 1/(i+1)^s. Construction is O(n); sampling is O(log n).
type Zipf struct {
	cum []float64 // cumulative weights, cum[n-1] == total
}

// NewZipf builds a Zipf sampler over [0, n) with skew s. It panics if
// n <= 0. Negative s is treated as 0 (uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if s < 0 {
		s = 0
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / powf(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Sample draws one element using randomness from r.
func (z *Zipf) Sample(r *Source) int {
	target := r.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// powf computes x**y for the Zipf weights. Integer exponents take an
// exact fast path; the rest defers to math.Pow.
func powf(x, y float64) float64 {
	if y == float64(int(y)) && y >= 0 && y < 64 {
		out := 1.0
		for i := 0; i < int(y); i++ {
			out *= x
		}
		return out
	}
	return math.Pow(x, y)
}
