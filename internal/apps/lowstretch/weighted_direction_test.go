package lowstretch

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// wfingerprint hashes the complete weighted forest output — level count
// and the exact tree edge sequence including each weight's IEEE bits.
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
	for _, e := range t.Edges {
		put32(e.U)
		put32(e.V)
		put64(math.Float64bits(e.W))
	}
	return h.Sum64()
}

func weightedDeterminismGraphs() map[string]*graph.WeightedGraph {
	return map[string]*graph.WeightedGraph{
		"grid": graph.RandomWeights(graph.Grid2D(18, 22), 1, 6, 13),
		"gnm":  graph.RandomWeights(graph.GNM(500, 2000, 11), 0.5, 8, 7),
	}
}

// TestBuildWeightedPoolDirectionsBitIdentical is the hierarchy determinism
// proof for the AKPW weighted tree: the forest must be bit-identical at
// workers 1/2/8, because the weighted partition is, the weighted
// contraction is bit-identical to its serial reference (including summed
// weight bits), and the annotation kernels are shared with the unweighted
// engine.
func TestBuildWeightedPoolDirectionsBitIdentical(t *testing.T) {
	for name, wg := range weightedDeterminismGraphs() {
		for _, seed := range []uint64{1, 42} {
			base, err := BuildWeightedPoolCtx(nil, nil, wg, 0.25, seed, 1, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			want := wfingerprint(base)
			for _, w := range []int{2, 8} {
				tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.25, seed, w, core.DirectionAuto)
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

// TestBuildWeightedGolden pins one fixed weighted construction to a golden
// fingerprint so silent cross-version drift of the weighted hierarchy path
// fails loudly. Update the constant only with an intentional, documented
// change to the engine, the weighted partition, or the weighted
// contraction.
func TestBuildWeightedGolden(t *testing.T) {
	const golden = uint64(0x9518ea417ee2f264)
	wg := graph.RandomWeights(graph.Grid2D(13, 17), 1, 4, 3)
	for _, w := range []int{1, 2, 8} {
		tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 5, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		if got := wfingerprint(tr); got != golden {
			t.Fatalf("workers=%d: fingerprint %#x want %#x", w, got, golden)
		}
	}
}

// TestBuildWeightedStretch checks the structural quality contract: the
// weighted tree spans, every tree edge is an original edge (stretch of a
// tree edge is exactly 1), and the mean stretch is finite and >= 1.
func TestBuildWeightedStretch(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(20, 20), 1, 5, 9)
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.25, 4, 4, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != wg.NumVertices()-1 {
		t.Fatalf("tree has %d edges for connected n=%d", len(tr.Edges), wg.NumVertices())
	}
	for _, e := range tr.Edges {
		w, ok := wg.Weight(e.U, e.V)
		if !ok || math.Float64bits(w) != math.Float64bits(e.W) {
			t.Fatalf("tree edge {%d,%d} weight %g is not the original weight", e.U, e.V, e.W)
		}
		d := tr.Dist(e.U, e.V)
		if math.Abs(d-w) > 1e-12*math.Max(1, w) {
			t.Fatalf("tree distance %g across tree edge of weight %g", d, w)
		}
	}
	st := tr.Stretch()
	if st.Edges != wg.NumEdges() {
		t.Fatalf("stretch measured %d edges, want %d", st.Edges, wg.NumEdges())
	}
	if st.Mean < 1-1e-9 || math.IsInf(st.Mean, 0) || math.IsNaN(st.Mean) {
		t.Fatalf("mean stretch %g out of range", st.Mean)
	}
	if st.Max < 1-1e-9 {
		t.Fatalf("max stretch %g below 1", st.Max)
	}
}

// TestBuildWeightedUnitWeightsMatchHopStretch sanity-checks the unit-weight
// regime: with every weight 1 the weighted stretch of an edge equals its
// hop stretch, so the AKPW tree's mean stretch must stay in the same
// polylog ballpark the unweighted construction achieves.
func TestBuildWeightedUnitWeightsMatchHopStretch(t *testing.T) {
	g := graph.Grid2D(16, 16)
	wg := graph.RandomWeights(g, 1, 1, 1) // every weight exactly 1
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 7, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stretch()
	for _, e := range tr.Edges {
		if e.W != 1 {
			t.Fatalf("unit graph produced weight %g", e.W)
		}
	}
	// Hop distances are integers; weighted Dist must agree exactly on unit
	// weights.
	if d := tr.Dist(0, uint32(g.NumVertices()-1)); d != math.Trunc(d) {
		t.Fatalf("unit-weight tree distance %g is not integral", d)
	}
	if st.Mean > 100 {
		t.Fatalf("unit-weight mean stretch %g is far above the polylog ballpark", st.Mean)
	}
}

// TestBuildWeightedClassHistogram checks the AKPW bucketing metadata: the
// histogram covers every edge and the class count matches the weight
// range.
func TestBuildWeightedClassHistogram(t *testing.T) {
	wg := graph.RandomWeights(graph.GNM(300, 1200, 2), 1, 60, 5)
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 1, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range tr.ClassHistogram {
		total += c
	}
	if total != wg.NumEdges() {
		t.Fatalf("class histogram covers %d edges, want %d", total, wg.NumEdges())
	}
	if tr.MinWeight < 1 || tr.MinWeight >= 60 {
		t.Fatalf("MinWeight %g outside the generator range", tr.MinWeight)
	}
	if len(tr.ClassHistogram) < 2 {
		t.Fatalf("a 60x weight range must span multiple classes, got %d", len(tr.ClassHistogram))
	}
}

// TestBuildWeightedRejectsOverflowingWeightRange: finite weights whose
// ratio overflows float64 have no weight-class scale. The build must
// report that as an error naming the range instead of bucketing into a
// negative class count, which panicked inside a pool job.
func TestBuildWeightedRejectsOverflowingWeightRange(t *testing.T) {
	wg, err := graph.ReadDIMACSWeighted(strings.NewReader("p sp 4 3\na 1 2 1e-300\na 2 3 1e300\na 3 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.2, 1, 2, core.DirectionAuto)
	if err == nil || !strings.Contains(err.Error(), "weight range [1e-300, 1e+300]") {
		t.Fatalf("BuildWeightedPoolCtx = (%v, %v), want a weight-range error", tr, err)
	}
}
