package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

func mustPartitionWeighted(t *testing.T, wg *graph.WeightedGraph, beta float64, opts Options) *WeightedDecomposition {
	t.Helper()
	d, err := PartitionWeightedParallel(wg, beta, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// weightedDeterminismGraphs are the cross-worker determinism workloads:
// the high-diameter grid, the low-diameter gnm family, and a power-law
// graph (mirroring direction_test.go's unweighted trio), plus the
// preferential-attachment and road families, whose wide buckets at small
// β once let a racing round count differ between runs.
func weightedDeterminismGraphs() []struct {
	name string
	wg   *graph.WeightedGraph
} {
	return []struct {
		name string
		wg   *graph.WeightedGraph
	}{
		{"grid", graph.RandomWeights(graph.Grid2D(18, 22), 1, 6, 3)},
		{"gnm", graph.RandomWeights(graph.GNM(400, 1600, 11), 0.5, 4, 7)},
		{"powerlaw", graph.RandomWeights(graph.RMAT(9, 2600, 13), 1, 9, 5)},
		{"pa", graph.RandomWeights(graph.PreferentialAttachment(800, 3, 5), 1, 4, 2)},
		{"road", graph.RandomWeights(graph.RoadNetwork(25, 25, 0.85, 25, 9), 1, 8, 4)},
	}
}

// TestWeightedDirectionsBitIdentical is the weighted determinism proof,
// mirroring TestPartitionDirectionsBitIdentical: weighted partitions must
// produce byte-identical Center/Parent arrays, bit-identical Dist arrays
// and the same Rounds for fixed (graph, β, Δ, seed) at every worker count,
// because each round relaxes from start-of-round distances, the shifted
// distances converge to one min-plus fixpoint, and parents are resolved
// as the minimum packed (distance bits, proposer) key over those
// distances. Each graph runs at the default Δ and at small β with the
// hierarchies' Δ = 1/β, where buckets are wide and rounds race most.
func TestWeightedDirectionsBitIdentical(t *testing.T) {
	seeds := []uint64{1, 42}
	configs := []struct{ beta, delta float64 }{{0.15, 0}, {0.05, 20}}
	for _, tc := range weightedDeterminismGraphs() {
		for _, seed := range seeds {
			for _, c := range configs {
				run := func(w int) *WeightedDecomposition {
					d, err := PartitionWeightedParallel(tc.wg, c.beta, c.delta, Options{Seed: seed, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				base := run(1)
				for _, w := range []int{2, 8} {
					d := run(w)
					tag := fmt.Sprintf("%s seed=%d beta=%g delta=%g workers=%d", tc.name, seed, c.beta, c.delta, w)
					if d.Rounds != base.Rounds {
						t.Fatalf("%s: Rounds=%d want %d", tag, d.Rounds, base.Rounds)
					}
					for v := range base.Center {
						if base.Center[v] != d.Center[v] {
							t.Fatalf("%s: Center[%d]=%d want %d", tag, v, d.Center[v], base.Center[v])
						}
						if math.Float64bits(base.Dist[v]) != math.Float64bits(d.Dist[v]) {
							t.Fatalf("%s: Dist[%d]=%x want %x", tag, v,
								math.Float64bits(d.Dist[v]), math.Float64bits(base.Dist[v]))
						}
						if base.Parent[v] != d.Parent[v] {
							t.Fatalf("%s: Parent[%d]=%d want %d", tag, v, d.Parent[v], base.Parent[v])
						}
					}
				}
			}
		}
	}
}

// sameWeighted reports whether a and b agree on Center, Parent, the Dist
// bits and Rounds.
func sameWeighted(a, b *WeightedDecomposition) bool {
	if a.Rounds != b.Rounds {
		return false
	}
	for v := range a.Center {
		if a.Center[v] != b.Center[v] || a.Parent[v] != b.Parent[v] ||
			math.Float64bits(a.Dist[v]) != math.Float64bits(b.Dist[v]) {
			return false
		}
	}
	return true
}

// weightedGolden hashes the full decomposition output (center, parent and
// the raw IEEE distance bits) with FNV-1a, the golden fingerprint the
// cross-version drift test pins.
func weightedGolden(d *WeightedDecomposition) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:8])
	}
	for v := range d.Center {
		put32(d.Center[v])
		put32(d.Parent[v])
		put64(math.Float64bits(d.Dist[v]))
	}
	return h.Sum64()
}

// TestWeightedGoldenOutput pins one fixed (graph, β, seed) decomposition
// to a golden fingerprint, so silent cross-version drift of the weighted
// path (a changed float expression, a different tie rule) fails loudly
// even when the run stays internally consistent across workers. Update
// the constant only with an intentional, documented change to the
// weighted claim resolution.
func TestWeightedGoldenOutput(t *testing.T) {
	const goldenWeighted = uint64(0x3f4c50e4eccdf7dd)
	wg := graph.RandomWeights(graph.Grid2D(12, 13), 1, 5, 9)
	for _, w := range []int{1, 2, 8} {
		d := mustPartitionWeighted(t, wg, 0.2, Options{Seed: 5, Workers: w})
		if got := weightedGolden(d); got != goldenWeighted {
			t.Fatalf("workers=%d: golden fingerprint %#x, want %#x", w, got, goldenWeighted)
		}
	}
}

// TestWeightedDirectionsSharedPool reruns the bit-identity check with one
// explicit persistent pool shared by every run (the cmd/mpx deployment
// shape), catching any scratch-reuse state leaking between runs.
func TestWeightedDirectionsSharedPool(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	wg := graph.RandomWeights(graph.GNM(500, 2500, 17), 1, 6, 19)
	base := mustPartitionWeighted(t, wg, 0.1, Options{Seed: 2, Workers: 1, Pool: pool})
	for _, w := range []int{2, 8, 2} {
		d := mustPartitionWeighted(t, wg, 0.1, Options{Seed: 2, Workers: w, Pool: pool})
		if !sameWeighted(base, d) {
			t.Fatalf("workers=%d: output differs from workers=1", w)
		}
	}
}

// TestWeightedSubUlpWeightsNoCycle drives the sub-ulp regression through
// the full weighted partition: edges far below one ulp of the path length
// produce bit-equal neighbor distances, and the parent resolution must
// stay acyclic (chaseRoot panics on a cycle) and bit-identical across
// worker counts.
func TestWeightedSubUlpWeightsNoCycle(t *testing.T) {
	var edges []graph.WeightedEdge
	for i := uint32(0); i < 49; i++ {
		w := 1.0
		if i%2 == 1 {
			w = 1e-30
		}
		edges = append(edges, graph.WeightedEdge{U: i, V: i + 1, W: w})
	}
	wg, err := graph.FromWeightedEdges(50, edges)
	if err != nil {
		t.Fatal(err)
	}
	base := mustPartitionWeighted(t, wg, 0.2, Options{Seed: 4, Workers: 1})
	for _, w := range []int{2, 8} {
		d := mustPartitionWeighted(t, wg, 0.2, Options{Seed: 4, Workers: w})
		if !sameWeighted(base, d) {
			t.Fatalf("workers=%d: output differs from workers=1", w)
		}
	}
}
