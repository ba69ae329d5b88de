package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mpx/internal/parallel"
)

// weightedGraphsEqual compares two weighted graphs bit for bit, including
// the IEEE bits of every weight.
func weightedGraphsEqual(a, b *WeightedGraph) bool {
	if a.NumVertices() != b.NumVertices() || len(a.adj) != len(b.adj) {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.adj {
		if a.adj[i] != b.adj[i] {
			return false
		}
	}
	for i := range a.weights {
		if math.Float64bits(a.weights[i]) != math.Float64bits(b.weights[i]) {
			return false
		}
	}
	return true
}

// weightVariants lifts an unweighted graph into the weight regimes the
// weighted contraction must survive: generic uniform weights, all-equal
// weights (maximal FP tie density), and denormal weights (the sums stay
// denormal, where naive normalization tricks break).
func weightVariants(g *Graph) map[string]*WeightedGraph {
	uniform := RandomWeights(g, 0.5, 8, 77)
	equal := RandomWeights(g, 3, 3, 1) // lo == hi: every weight exactly 3
	denormal := RandomWeights(g, 1, 2, 5)
	// Scale into the denormal range: values are k·2^-1074 for small k.
	for i := range denormal.weights {
		denormal.weights[i] = float64(1+int(denormal.weights[i]*4)) * 5e-324
	}
	return map[string]*WeightedGraph{
		"uniform": uniform, "equal": equal, "denormal": denormal,
	}
}

// duplicateHeavyLabels assigns few distinct labels so almost every cut arc
// collapses onto one of a handful of quotient arcs — the regime where the
// run-sum order matters most.
func duplicateHeavyLabels(n, classes int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(rng.Intn(classes))
	}
	return label
}

// TestContractWeightedPoolMatchesSerial pins the pooled weighted
// contraction bit-identical — structure AND summed weight bits — to the
// serial map reference across weight regimes, label densities and worker
// counts 1/2/8.
func TestContractWeightedPoolMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	graphs := map[string]*Graph{
		"grid": Grid2D(30, 40),
		"gnm":  GNM(2000, 9000, 9),
		"path": Path(400),
	}
	for gname, g := range graphs {
		n := g.NumVertices()
		labelings := map[string][]uint32{
			"dup2":   duplicateHeavyLabels(n, 2, 1),
			"dup7":   duplicateHeavyLabels(n, 7, 2),
			"sparse": duplicateHeavyLabels(n, n/3+2, 3),
		}
		for wname, wg := range weightVariants(g) {
			for lname, label := range labelings {
				want, wantQuot, err := ContractWeightedClusters(wg, label)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 8} {
					sc := &ContractScratch{}
					got, gotQuot, err := ContractWeightedClustersPool(pool, workers, wg, label, sc)
					if err != nil {
						t.Fatal(err)
					}
					if !weightedGraphsEqual(want, got) {
						t.Fatalf("%s/%s/%s workers=%d: weighted quotient diverges from serial",
							gname, wname, lname, workers)
					}
					// Both directions of every quotient edge must carry
					// identical bits — asymmetry breaks push/pull
					// bit-identity of the weighted partition one level up.
					for v := 0; v < got.NumVertices(); v++ {
						nbrs, ws := got.Neighbors(uint32(v))
						for i, u := range nbrs {
							w2, ok := got.Weight(u, uint32(v))
							if !ok || math.Float64bits(w2) != math.Float64bits(ws[i]) {
								t.Fatalf("%s/%s/%s workers=%d: asymmetric quotient weight on (%d,%d)",
									gname, wname, lname, workers, v, u)
							}
						}
					}
					for v := range wantQuot {
						if wantQuot[v] != gotQuot[v] {
							t.Fatalf("%s/%s/%s workers=%d: quot[%d] = %d want %d",
								gname, wname, lname, workers, v, gotQuot[v], wantQuot[v])
						}
					}
				}
			}
		}
	}
}

// TestContractWeightedConservesWeight checks the AKPW invariant on exactly
// representable weights: every quotient arc's weight is the exact sum of
// the original cut arcs mapping onto it, and total weight is conserved
// (quotient total == cut total). Small-integer weights make float addition
// exact, so conservation can be asserted with == at every worker count.
func TestContractWeightedConservesWeight(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	g := GNM(1500, 7000, 4)
	n := g.NumVertices()
	wg := RandomWeights(g, 1, 2, 3)
	// Integer-valued weights in 1..16: sums of a few thousand of them are
	// exact in float64.
	for i := range wg.weights {
		wg.weights[i] = float64(1 + int(wg.weights[i]*971)%16)
	}
	for _, classes := range []int{2, 5, 40} {
		label := duplicateHeavyLabels(n, classes, int64(classes))
		// Exact per-quotient-arc expectation, independent accumulation.
		expect := make(map[uint64]float64)
		var cutTotal float64
		quotOf := func(quot []uint32) {
			for v := 0; v < n; v++ {
				nbrs, ws := wg.Neighbors(uint32(v))
				for i, u := range nbrs {
					if label[u] == label[v] {
						continue
					}
					key := uint64(quot[v])<<32 | uint64(quot[u])
					expect[key] += ws[i]
					if uint32(v) < u {
						cutTotal += ws[i]
					}
				}
			}
		}
		for _, workers := range []int{1, 2, 8} {
			q, quot, err := ContractWeightedClustersPool(pool, workers, wg, label, &ContractScratch{})
			if err != nil {
				t.Fatal(err)
			}
			if len(expect) == 0 {
				quotOf(quot)
			}
			var quotTotal float64
			for v := 0; v < q.NumVertices(); v++ {
				nbrs, ws := q.Neighbors(uint32(v))
				for i, u := range nbrs {
					key := uint64(v)<<32 | uint64(u)
					if ws[i] != expect[key] {
						t.Fatalf("classes=%d workers=%d: quotient arc (%d,%d) weight %g want %g",
							classes, workers, v, u, ws[i], expect[key])
					}
					if uint32(v) < u {
						quotTotal += ws[i]
					}
				}
			}
			if quotTotal != cutTotal {
				t.Fatalf("classes=%d workers=%d: quotient total %g != cut total %g",
					classes, workers, quotTotal, cutTotal)
			}
		}
	}
}

// TestCutWeightedSubgraphPoolMatchesFromWeightedEdges pins the weighted
// residual builder bit-identical to FromWeightedEdges over the filtered
// cut-edge list.
func TestCutWeightedSubgraphPoolMatchesFromWeightedEdges(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	for gname, g := range map[string]*Graph{
		"grid": Grid2D(25, 30),
		"gnm":  GNM(1200, 5000, 6),
	} {
		for wname, wg := range weightVariants(g) {
			n := g.NumVertices()
			label := duplicateHeavyLabels(n, 6, 11)
			var cut []WeightedEdge
			for v := 0; v < n; v++ {
				nbrs, ws := wg.Neighbors(uint32(v))
				for i, u := range nbrs {
					if uint32(v) < u && label[v] != label[u] {
						cut = append(cut, WeightedEdge{U: uint32(v), V: u, W: ws[i]})
					}
				}
			}
			want, err := FromWeightedEdges(n, cut)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := CutWeightedSubgraphPool(pool, workers, wg, label, &ContractScratch{})
				if err != nil {
					t.Fatal(err)
				}
				if !weightedGraphsEqual(want, got) {
					t.Fatalf("%s/%s workers=%d: weighted residual diverges from FromWeightedEdges",
						gname, wname, workers)
				}
			}
		}
	}
}

// TestContractWeightedOutOfRangeLabels checks that
// ContractWeightedClustersPool rejects labels outside [0, n) with an error
// wrapping ErrVertexRange, as the unweighted kernel does.
func TestContractWeightedOutOfRangeLabels(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	wg := RandomWeights(Grid2D(8, 9), 1, 4, 2)
	for name, label := range outOfRangeLabelings(wg.NumVertices()) {
		for _, w := range []int{1, 4} {
			if _, _, err := ContractWeightedClustersPool(pool, w, wg, label, &ContractScratch{}); !errors.Is(err, ErrVertexRange) {
				t.Errorf("%s workers=%d: err = %v, want ErrVertexRange", name, w, err)
			}
		}
	}
}
