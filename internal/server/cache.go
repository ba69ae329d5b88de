package server

import "math"

// buildKey is the retention key for built hierarchies, and their response
// bodies, on a registry entry. Floats are keyed by their IEEE bits: the
// engines are bit-deterministic in the float values, so distinct bits are
// distinct configurations. Worker count is deliberately absent — it never
// changes a result bit. Because every build is bit-deterministic in the
// graph plus this key (docs/determinism.md), a retained response body is
// byte-identical to what a fresh computation would produce — cache hits
// are not approximations.
type buildKey struct {
	app      string
	weighted bool
	seed     uint64
	betaBits uint64
}

func newBuildKey(app string, weighted bool, seed uint64, beta float64) buildKey {
	return buildKey{
		app:      app,
		weighted: weighted,
		seed:     seed,
		betaBits: math.Float64bits(beta),
	}
}

// FNV-1a, the repo's fingerprint fold.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x00000100000001b3
)

func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}
