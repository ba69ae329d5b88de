package embedding

import (
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/graph"
)

// wfingerprint hashes the complete weighted embedding: every level's full
// assignment and the IEEE bits of every level length.
func wfingerprint(t *WeightedTree) uint64 {
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
	put32(uint32(t.Levels))
	for l, assign := range t.assignment {
		put64(math.Float64bits(t.length[l]))
		for _, a := range assign {
			put32(a)
		}
	}
	return h.Sum64()
}

func weightedDeterminismGraphs() map[string]*graph.WeightedGraph {
	return map[string]*graph.WeightedGraph{
		"grid": graph.RandomWeights(graph.Grid2D(15, 18), 1, 4, 13),
		"gnm":  graph.RandomWeights(graph.GNM(400, 1600, 11), 0.5, 6, 7),
	}
}

// TestBuildWeightedPoolDirectionsBitIdentical: the weighted embedding must
// be bit-identical at workers 1/2/8.
func TestBuildWeightedPoolDirectionsBitIdentical(t *testing.T) {
	for name, wg := range weightedDeterminismGraphs() {
		for _, seed := range []uint64{1, 42} {
			base, err := BuildWeightedPoolCtx(nil, nil, wg, 0, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := wfingerprint(base)
			for _, w := range []int{2, 8} {
				tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0, seed, w)
				if err != nil {
					t.Fatal(err)
				}
				if got := wfingerprint(tr); got != want {
					t.Fatalf("%s seed=%d workers=%d: fingerprint %#x want %#x",
						name, seed, w, got, want)
				}
			}
		}
	}
}

// TestBuildWeightedGolden pins one fixed weighted embedding to a golden
// fingerprint. Update the constant only with an intentional, documented
// change to the weighted partition or refinement.
func TestBuildWeightedGolden(t *testing.T) {
	const golden = uint64(0xa12329a3fbbfe948)
	wg := graph.RandomWeights(graph.Grid2D(12, 13), 1, 3, 3)
	for _, w := range []int{1, 2, 8} {
		tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := wfingerprint(tr); got != golden {
			t.Fatalf("workers=%d: fingerprint %#x want %#x", w, got, golden)
		}
	}
}

// TestBuildWeightedDominates checks the tree-metric contract on the
// weighted shortest-path metric: sampled tree distances dominate true
// weighted distances, and refinement is monotone (pieces only split).
func TestBuildWeightedDominates(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(14, 14), 1, 5, 9)
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.MeasureDistortion(300, 17)
	if st.Pairs == 0 {
		t.Fatal("no pairs sampled")
	}
	if st.DominatedFrac < 1 {
		t.Fatalf("tree metric dominates only %.3f of sampled pairs", st.DominatedFrac)
	}
	if math.IsNaN(st.MeanDistortion) || st.MeanDistortion < 1-1e-9 {
		t.Fatalf("mean distortion %g out of range", st.MeanDistortion)
	}
	// Monotone refinement: same piece at level l+1 implies same piece at l.
	for l := 1; l < tr.Levels; l++ {
		prev, cur := tr.assignment[l-1], tr.assignment[l]
		rep := make(map[uint32]uint32)
		for v := range cur {
			if r, ok := rep[cur[v]]; ok {
				if prev[r] != prev[v] {
					t.Fatalf("level %d: piece %d spans two level-%d pieces", l, cur[v], l-1)
				}
			} else {
				rep[cur[v]] = uint32(v)
			}
		}
	}
}
