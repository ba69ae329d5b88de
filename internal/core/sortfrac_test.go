package core

import (
	"math"
	"sort"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// fracGen is one adversarial input family for the radix-sort property
// test: it fills a frac array of the requested size.
type fracGen struct {
	name string
	gen  func(n int, seed uint64) []float64
}

func sortFracGens() []fracGen {
	return []fracGen{
		{"uniform", func(n int, seed uint64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = xrand.Uniform01(seed, uint64(i))
			}
			return out
		}},
		{"duplicate-heavy", func(n int, seed uint64) []float64 {
			// Only 7 distinct values: every radix bucket is huge and the
			// stable tie-break carries the ordering.
			vals := [7]float64{0, 0.125, 0.25, 0.3, 0.5, 0.7, 0.9375}
			out := make([]float64, n)
			for i := range out {
				out[i] = vals[xrand.Mix(seed, uint64(i))%7]
			}
			return out
		}},
		{"all-equal", func(n int, seed uint64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 0.4375
			}
			return out
		}},
		{"denormal", func(n int, seed uint64) []float64 {
			// Subnormals (and zero): the exponent bytes are all zero, so
			// only the low mantissa bytes discriminate — the exact regime
			// the skip-pass optimization must not mishandle.
			out := make([]float64, n)
			for i := range out {
				out[i] = math.SmallestNonzeroFloat64 * float64(xrand.Mix(seed, uint64(i))%1024)
			}
			return out
		}},
		{"denormal-mixed", func(n int, seed uint64) []float64 {
			out := make([]float64, n)
			for i := range out {
				switch xrand.Mix(seed, uint64(i)) % 3 {
				case 0:
					out[i] = 0
				case 1:
					out[i] = math.SmallestNonzeroFloat64 * float64(i%5)
				default:
					out[i] = xrand.Uniform01(seed, uint64(i))
				}
			}
			return out
		}},
		{"reverse-sorted", func(n int, seed uint64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(n-i) / float64(n+1)
			}
			return out
		}},
	}
}

// TestSortByFracMatchesSliceStable is the radix-sort property test: for
// every input family, size (straddling the serial/parallel cutoff) and
// worker count, the pool-parallel LSD radix sort must produce exactly the
// ranks sort.SliceStable assigns under the (frac, id) lexicographic order.
// Equality at workers 1, 2 and 8 on one shared pool also proves the ranks
// are independent of the block decomposition.
func TestSortByFracMatchesSliceStable(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	sizes := []int{3, 100, 2047, 2048, 6000}
	for _, g := range sortFracGens() {
		for _, n := range sizes {
			frac := g.gen(n, uint64(n)*0x9e37+1)
			want := make([]uint32, n)
			for i := range want {
				want[i] = uint32(i)
			}
			// The oracle: stable sort on frac alone; stability plus the
			// ascending initial id order realizes the (frac, id) rule.
			sort.SliceStable(want, func(a, b int) bool {
				return frac[want[a]] < frac[want[b]]
			})
			for _, w := range []int{1, 2, 8} {
				fracBits := make([]uint64, n)
				for i := range fracBits {
					fracBits[i] = math.Float64bits(frac[i])
				}
				order := fracOrder(pool, w, fracBits)
				for i := range order {
					if order[i] != want[i] {
						t.Fatalf("%s n=%d workers=%d: order[%d]=%d want %d",
							g.name, n, w, i, order[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortByFracRanksDriveDeterministicPartition pins the end-to-end
// consequence on a graph big enough (n > the serial cutoff) that the
// parallel radix path actually runs inside newShiftPlan: the fractional
// tie-break ranks feed the packed claim keys directly, so partitions must
// stay bit-identical across worker counts.
func TestSortByFracRanksDriveDeterministicPartition(t *testing.T) {
	g := graph.Grid2D(50, 60) // n=3000 > the 2048 serial cutoff
	base := mustPartition(t, g, 0.1, Options{Seed: 33, Workers: 1})
	for _, w := range []int{2, 8} {
		d := mustPartition(t, g, 0.1, Options{Seed: 33, Workers: w})
		for v := range base.Center {
			if base.Center[v] != d.Center[v] || base.Dist[v] != d.Dist[v] || base.Parent[v] != d.Parent[v] {
				t.Fatalf("workers=%d: partition diverges at vertex %d", w, v)
			}
		}
	}
}
