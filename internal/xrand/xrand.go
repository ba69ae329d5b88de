// Package xrand provides the deterministic random-number substrate used by
// the decomposition algorithms.
//
// Everything in this package is counter-based or splittable: a value drawn
// for vertex v depends only on (seed, v, counter), never on how work was
// scheduled across goroutines. This is what makes the parallel Partition
// implementation bit-for-bit reproducible for a fixed seed at any worker
// count, which in turn is what lets the test suite compare the parallel
// implementation against sequential references exactly.
package xrand

import "math"

// SplitMix64 is the finalizer-style generator from Steele, Lea and Flood
// (OOPSLA 2014). It is used both as a stand-alone sequential generator and,
// through Mix, as a stateless per-key hash generator.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// mix64 is the SplitMix64 output function: a bijective finalizer with full
// avalanche, so consecutive counters give statistically independent outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary (seed, key) pair to a uniform uint64. It is the
// counter-based primitive behind all per-vertex randomness.
func Mix(seed, key uint64) uint64 {
	return mix64(seed + 0x9e3779b97f4a7c15*(key+1))
}

// Mix2 hashes (seed, a, b); used when a vertex needs several independent
// draws (e.g. stream index b for vertex a).
func Mix2(seed, a, b uint64) uint64 {
	return mix64(Mix(seed, a) + 0x9e3779b97f4a7c15*(b+1))
}

// Float64 returns the next float in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return toFloat(s.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (s *SplitMix64) boundedUint64(n uint64) uint64 {
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// toFloat maps a uint64 to [0, 1) with 53-bit precision.
func toFloat(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// Uniform01 returns a counter-based uniform in [0, 1) for (seed, key).
func Uniform01(seed, key uint64) float64 {
	return toFloat(Mix(seed, key))
}

// Exp returns an Exp(rate) draw for (seed, key) via inverse-CDF sampling:
// X = -ln(1-U)/rate. 1-U is taken in (0, 1]; the result is finite and >= 0.
func Exp(seed, key uint64, rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := Uniform01(seed, key)
	// 1-u lies in (0, 1]; ln of it is finite and <= 0.
	return -math.Log(1-u) / rate
}

// Perm returns a uniform random permutation of [0, n) generated by
// Fisher-Yates from this generator.
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Perm32 is Perm for uint32 element type, the vertex-id width used by the
// graph substrate.
func (s *SplitMix64) Perm32(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
