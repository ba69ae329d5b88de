package core

import (
	"testing"
	"testing/quick"

	"mpx/internal/graph"
)

// randomGraph builds a small random graph from fuzz bytes: every pair of
// consecutive bytes is an edge mod n.
func randomGraph(raw []byte, n int) *graph.Graph {
	edges := make([]graph.Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{
			U: uint32(raw[i]) % uint32(n),
			V: uint32(raw[i+1]) % uint32(n),
		})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestQuickPartitionAlwaysValid(t *testing.T) {
	f := func(raw []byte, seed uint64, betaRaw uint8) bool {
		n := 40
		g := randomGraph(raw, n)
		beta := 0.02 + float64(betaRaw)/255*0.9 // (0.02, 0.92)
		d, err := Partition(g, beta, Options{Seed: seed})
		if err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		g := randomGraph(raw, 30)
		opts := Options{Seed: seed, Workers: 3}
		par, err := Partition(g, 0.2, opts)
		if err != nil {
			return false
		}
		seq, err := PartitionSequential(g, 0.2, opts)
		if err != nil {
			return false
		}
		for v := range par.Center {
			if par.Center[v] != seq.Center[v] || par.Dist[v] != seq.Dist[v] ||
				par.Parent[v] != seq.Parent[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickClusterCountBounds(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		g := randomGraph(raw, 50)
		_, comps := graph.ConnectedComponents(g)
		d, err := Partition(g, 0.3, Options{Seed: seed})
		if err != nil {
			return false
		}
		k := d.NumClusters()
		// At least one piece per component; at most one per vertex.
		return k >= comps && k <= g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickValidityUnderRelabeling(t *testing.T) {
	// Relabeling the graph must not break anything (the algorithm may
	// behave differently — ids feed tie-breaks — but output stays valid).
	f := func(raw []byte, seed uint64) bool {
		g := randomGraph(raw, 35)
		perm := graph.RandomPermutation(35, seed)
		pg, err := graph.Permute(g, perm)
		if err != nil {
			return false
		}
		d, err := Partition(pg, 0.25, Options{Seed: seed})
		if err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickBallGrowingAlwaysValid(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		g := randomGraph(raw, 40)
		d, err := BallGrowingCtx(nil, g, 0.25, seed)
		if err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickWeightedPartitionAlwaysValid(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		g := randomGraph(raw, 30)
		wg := graph.RandomWeights(g, 0.5, 3, seed)
		d, err := PartitionWeighted(wg, 0.2, Options{Seed: seed})
		if err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHarmonicNumber(t *testing.T) {
	if HarmonicNumber(1) != 1 {
		t.Error("H_1")
	}
	// The literal is folded with exact constant arithmetic; compare with
	// tolerance against the float accumulation.
	if h := HarmonicNumber(4); h < 2.083333333 || h > 2.083333334 {
		t.Errorf("H_4 = %v", h)
	}
	if HarmonicNumber(0) != 0 {
		t.Error("H_0")
	}
}

func TestTieBreakAndShiftSourceStrings(t *testing.T) {
	if TieFractional.String() != "fractional" || TiePermutation.String() != "permutation" {
		t.Error("TieBreak strings")
	}
	if ShiftExponential.String() != "exponential" || ShiftQuantile.String() != "quantile" {
		t.Error("ShiftSource strings")
	}
	if TieBreak(9).String() == "" || ShiftSource(9).String() == "" {
		t.Error("unknown enum strings must be non-empty")
	}
}

func TestDecompositionStringer(t *testing.T) {
	g := graph.Path(5)
	d, err := Partition(g, 0.3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := d.String(); s == "" {
		t.Error("empty String()")
	}
}
