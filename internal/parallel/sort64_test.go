package parallel

import (
	"math/rand"
	"sort"
	"testing"
)

func sort64Inputs() map[string][]uint64 {
	rng := rand.New(rand.NewSource(7))
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = rng.Uint64()
	}
	dupHeavy := make([]uint64, 5000)
	for i := range dupHeavy {
		dupHeavy[i] = uint64(rng.Intn(7)) << 32
	}
	sorted := make([]uint64, 3000)
	for i := range sorted {
		sorted[i] = uint64(i) * 3
	}
	reversed := make([]uint64, 3000)
	for i := range reversed {
		reversed[i] = uint64(len(reversed) - i)
	}
	allEqual := make([]uint64, 2500)
	for i := range allEqual {
		allEqual[i] = 0xdeadbeefcafe
	}
	packed := make([]uint64, 4000)
	for i := range packed {
		packed[i] = uint64(rng.Intn(50))<<32 | uint64(rng.Intn(50))
	}
	return map[string][]uint64{
		"random": random, "dupHeavy": dupHeavy, "sorted": sorted,
		"reversed": reversed, "allEqual": allEqual, "packedPairs": packed,
	}
}

// TestSortUint64MatchesStdlib checks the key-only sort against sort.Slice
// at several worker counts, including inputs small enough for the serial
// path and large enough for the parallel passes.
func TestSortUint64MatchesStdlib(t *testing.T) {
	for name, input := range sort64Inputs() {
		want := append([]uint64(nil), input...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range []int{1, 2, 8} {
			got := append([]uint64(nil), input...)
			Default().SortUint64(w, got, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: got[%d]=%#x want %#x", name, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSortPairsStable checks that records with equal keys keep their
// original relative order (the property the hierarchy engine's
// representative-edge selection depends on) and that keys and payloads
// move together, at workers 1/2/8.
func TestSortPairsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 100, serialCutoff - 1, serialCutoff * 3} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(9)) << 40 // few distinct keys -> long equal runs
		}
		for _, w := range []int{1, 2, 8} {
			k := append([]uint64(nil), keys...)
			v := make([]uint32, n)
			for i := range v {
				v[i] = uint32(i)
			}
			Default().SortPairs(w, k, v, nil, nil)
			for i := 1; i < n; i++ {
				if k[i-1] > k[i] {
					t.Fatalf("n=%d workers=%d: keys unsorted at %d", n, w, i)
				}
				if k[i-1] == k[i] && v[i-1] >= v[i] {
					t.Fatalf("n=%d workers=%d: stability violated at %d (%d then %d)", n, w, i, v[i-1], v[i])
				}
			}
			for i := range k {
				if k[i] != keys[v[i]] {
					t.Fatalf("n=%d workers=%d: payload %d detached from key", n, w, i)
				}
			}
		}
	}
}

// TestSortUint64WorkerIndependent pins bit-identical output across worker
// counts on one fixed input (sortedness alone would mask a nondeterministic
// but still-sorted permutation of payloads).
func TestSortPairsWorkerIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := serialCutoff * 2
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(64)) << 32
	}
	baseK := append([]uint64(nil), keys...)
	baseV := make([]uint32, n)
	for i := range baseV {
		baseV[i] = uint32(i)
	}
	Default().SortPairs(1, baseK, baseV, nil, nil)
	for _, w := range []int{2, 3, 8, 16} {
		k := append([]uint64(nil), keys...)
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(i)
		}
		Default().SortPairs(w, k, v, nil, nil)
		for i := range k {
			if k[i] != baseK[i] || v[i] != baseV[i] {
				t.Fatalf("workers=%d diverges from workers=1 at %d", w, i)
			}
		}
	}
}

// TestSortUint64ScratchReuse checks that an undersized scratch is replaced
// rather than trusted, and that a reused scratch buffer produces the same
// result as a fresh one.
func TestSortUint64ScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scratch := make([]uint64, 0, 8)
	valScratch := make([]uint32, 0, 8)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(rng.Intn(40))
		}
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i)
		}
		scratch = Grow(scratch, n)
		valScratch = Grow(valScratch, n)
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		Default().SortPairs(4, keys, vals, scratch, valScratch)
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("trial %d: keys[%d]=%#x want %#x", trial, i, keys[i], want[i])
			}
		}
	}
}
