package blocks

import (
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/graph"
)

// wfingerprint hashes the complete weighted block structure: per block the
// exact edge sequence, the cluster count, and the weighted component
// radius bits.
func wfingerprint(bd *WeightedDecomposition) uint64 {
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
	put32(uint32(len(bd.Blocks)))
	for _, b := range bd.Blocks {
		put32(uint32(len(b.Edges)))
		put32(uint32(b.Clusters))
		put64(math.Float64bits(b.MaxComponentRadius))
		for _, e := range b.Edges {
			put32(e.U)
			put32(e.V)
		}
	}
	return h.Sum64()
}

func weightedDeterminismGraphs() map[string]*graph.WeightedGraph {
	return map[string]*graph.WeightedGraph{
		"grid": graph.RandomWeights(graph.Grid2D(18, 22), 1, 4, 13),
		"gnm":  graph.RandomWeights(graph.GNM(500, 2000, 11), 0.5, 6, 7),
	}
}

// TestDecomposeWeightedPoolDirectionsBitIdentical: the weighted block
// structure must be bit-identical at workers 1/2/8.
func TestDecomposeWeightedPoolDirectionsBitIdentical(t *testing.T) {
	for name, wg := range weightedDeterminismGraphs() {
		for _, seed := range []uint64{1, 42} {
			base, err := DecomposeWeightedPoolCtx(nil, nil, wg, 0.5, seed, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := wfingerprint(base)
			for _, w := range []int{2, 8} {
				bd, err := DecomposeWeightedPoolCtx(nil, nil, wg, 0.5, seed, 0, w)
				if err != nil {
					t.Fatal(err)
				}
				if got := wfingerprint(bd); got != want {
					t.Fatalf("%s seed=%d workers=%d: fingerprint %#x want %#x",
						name, seed, w, got, want)
				}
			}
		}
	}
}

// TestDecomposeWeightedGolden pins one fixed weighted decomposition to a
// golden fingerprint. Update the constant only with an intentional,
// documented change to the weighted engine or partition.
func TestDecomposeWeightedGolden(t *testing.T) {
	const golden = uint64(0x0889c292b8140c9e)
	wg := graph.RandomWeights(graph.Grid2D(13, 17), 1, 3, 3)
	for _, w := range []int{1, 2, 8} {
		bd, err := DecomposeWeightedPoolCtx(nil, nil, wg, 0.5, 5, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := wfingerprint(bd); got != golden {
			t.Fatalf("workers=%d: fingerprint %#x want %#x", w, got, golden)
		}
	}
}

// TestDecomposeWeightedCoversEdges checks the partition-of-edges contract:
// every original edge lands in exactly one block.
func TestDecomposeWeightedCoversEdges(t *testing.T) {
	wg := graph.RandomWeights(graph.GNM(400, 1500, 3), 1, 8, 9)
	bd, err := DecomposeWeightedPoolCtx(nil, nil, wg, 0.5, 2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bd.EdgeCount() != wg.NumEdges() {
		t.Fatalf("blocks cover %d edges, want %d", bd.EdgeCount(), wg.NumEdges())
	}
	seen := make(map[uint64]bool)
	for _, b := range bd.Blocks {
		if len(b.Edges) == 0 {
			t.Fatal("empty block emitted")
		}
		if b.Clusters <= 0 || b.MaxComponentRadius < 0 {
			t.Fatalf("block has clusters=%d radius=%g", b.Clusters, b.MaxComponentRadius)
		}
		for _, e := range b.Edges {
			a, c := e.U, e.V
			if a > c {
				a, c = c, a
			}
			key := uint64(a)<<32 | uint64(c)
			if seen[key] {
				t.Fatalf("edge {%d,%d} assigned to two blocks", e.U, e.V)
			}
			seen[key] = true
		}
	}
}
