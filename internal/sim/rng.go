package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). Simulations must not depend on
// math/rand's global state so that every run is reproducible from a
// single seed; each component that needs randomness owns an RNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64. Any seed,
// including 0, yields a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// splitmix64 advances *s and returns the next output of the SplitMix64
// stream. It is NewRNG's seeding primitive.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Hit draws one Bernoulli trial with probability permille/1000. Rates
// at or below 0 never hit and never consume randomness, so an inactive
// fault class leaves the stream untouched; rates of 1000 or more
// always hit (and do consume a draw, keeping replay deterministic for
// plans that mix certain and probabilistic faults).
func (r *RNG) Hit(permille int) bool {
	if permille <= 0 {
		return false
	}
	return r.Intn(1000) < permille
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew s > 0
// using inverse-CDF on a precomputed table is avoided for memory; this
// uses rejection-free approximate inversion adequate for workload
// synthesis. Larger s concentrates mass on small indices.
type Zipf struct {
	rng *RNG
	cdf []float64
	// jump[k] is the least index whose CDF value reaches k/zipfBuckets;
	// jump[zipfBuckets] is n-1. It narrows Draw's binary search from
	// the whole table to one bucket's worth of entries — with skewed
	// mass, usually one or two — without changing which index any u
	// maps to, so draw sequences are bit-identical to a full search.
	jump []int32
}

// zipfBuckets is the jump-table resolution. A power of two so the
// bucket of a draw is exact integer arithmetic on its mantissa bits.
const zipfBuckets = 256

// NewZipf builds a Zipf sampler over [0, n) with exponent s.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	jump := make([]int32, zipfBuckets+1)
	i := 0
	for k := range jump {
		target := float64(k) / zipfBuckets
		for i < n-1 && cdf[i] < target {
			i++
		}
		jump[k] = int32(i)
	}
	return &Zipf{rng: rng, cdf: cdf, jump: jump}
}

// Draw returns the next sample.
func (z *Zipf) Draw() int {
	// Identical to u := z.rng.Float64(), with the mantissa bits kept:
	// bits/2^53 is exact, so bits>>45 is exactly floor(u·zipfBuckets)
	// and u lies in [k/B, (k+1)/B) — the answer is in [jump[k],
	// jump[k+1]] by construction.
	bits := z.rng.Uint64() >> 11
	u := float64(bits) / (1 << 53)
	k := bits >> 45
	lo, hi := int(z.jump[k]), int(z.jump[k+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
