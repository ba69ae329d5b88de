package core

import (
	"math"
	"testing"
	"testing/quick"

	"mpx/internal/bfs"
	"mpx/internal/graph"
	"mpx/internal/parallel"
)

func unitWeighted(g *graph.Graph) *graph.WeightedGraph {
	var wedges []graph.WeightedEdge
	for _, e := range g.Edges() {
		wedges = append(wedges, graph.WeightedEdge{U: e.U, V: e.V, W: 1})
	}
	wg, err := graph.FromWeightedEdges(g.NumVertices(), wedges)
	if err != nil {
		panic(err)
	}
	return wg
}

// singleSource is the deltaStep start vector of a single-source search.
func singleSource(n int, s uint32) []float64 {
	init := make([]float64, n)
	for i := range init {
		init[i] = math.Inf(1)
	}
	init[s] = 0
	return init
}

// runDelta runs deltaStep into fresh dist and parent buffers.
func runDelta(t *testing.T, pool *parallel.Pool, wg *graph.WeightedGraph, init []float64, delta float64, workers int) (dist []float64, parent []uint32, rounds int) {
	t.Helper()
	n := wg.NumVertices()
	dist, parent = make([]float64, n), make([]uint32, n)
	rounds, err := deltaStep(nil, pool, wg, init, delta, workers, dist, parent)
	if err != nil {
		t.Fatal(err)
	}
	return dist, parent, rounds
}

// deltaFrom runs deltaStep from one source on the default pool.
func deltaFrom(t *testing.T, wg *graph.WeightedGraph, s uint32, delta float64, workers int) (dist []float64, parent []uint32, rounds int) {
	t.Helper()
	return runDelta(t, nil, wg, singleSource(wg.NumVertices(), s), delta, workers)
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	cases := []*graph.WeightedGraph{
		graph.RandomWeights(graph.Grid2D(20, 20), 1, 10, 1),
		graph.RandomWeights(graph.GNM(300, 900, 2), 0.5, 5, 3),
		graph.RandomWeights(graph.Cycle(100), 1, 2, 4),
		unitWeighted(graph.BinaryTree(127)),
	}
	for gi, wg := range cases {
		for _, delta := range []float64{0, 0.5, 2, 100} {
			for _, workers := range []int{1, 4} {
				want := bfs.DijkstraWeighted(wg, 0)
				got, _, _ := deltaFrom(t, wg, 0, delta, workers)
				for v := range want {
					if math.Abs(want[v]-got[v]) > 1e-9 &&
						!(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
						t.Fatalf("graph %d delta=%g workers=%d: dist[%d]=%g want %g",
							gi, delta, workers, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestDeltaSteppingPoolMatchesDijkstra checks the bucket relaxation on an
// explicit pool against the Dijkstra oracle.
func TestDeltaSteppingPoolMatchesDijkstra(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	wg := graph.RandomWeights(graph.Grid2D(25, 25), 1, 8, 21)
	want := bfs.DijkstraWeighted(wg, 0)
	for _, w := range []int{1, 2, 8} {
		dist, _, _ := runDelta(t, pool, wg, singleSource(wg.NumVertices(), 0), 0.5, w)
		for v, d := range want {
			if diff := dist[v] - d; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("workers=%d: dist[%d]=%g want %g", w, v, dist[v], d)
			}
		}
	}
}

func TestDeltaSteppingParentsConsistent(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(15, 15), 1, 5, 7)
	dist, parent, _ := deltaFrom(t, wg, 3, 0, 2)
	for v := range parent {
		if math.IsInf(dist[v], 1) || uint32(v) == 3 {
			continue
		}
		p := parent[v]
		nbrs, ws := wg.Neighbors(p)
		found := false
		for i, u := range nbrs {
			if u == uint32(v) && math.Abs(dist[p]+ws[i]-dist[v]) < 1e-9 {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d: parent %d does not explain dist %g", v, p, dist[v])
		}
	}
}

func TestDeltaSteppingUnreachable(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.RandomWeights(g, 1, 2, 1)
	dist, parent, _ := deltaFrom(t, wg, 0, 0, 1)
	for v := 2; v < 5; v++ {
		if !math.IsInf(dist[v], 1) {
			t.Errorf("vertex %d should be unreachable", v)
		}
		if parent[v] != uint32(v) {
			t.Errorf("unreachable vertex %d has foreign parent", v)
		}
	}
}

func TestDeltaSteppingMultiSource(t *testing.T) {
	wg := unitWeighted(graph.Path(10))
	init := singleSource(10, 9)
	init[0] = 0.5
	dist, _, _ := runDelta(t, nil, wg, init, 1, 2)
	for v := 0; v < 10; v++ {
		want := math.Min(0.5+float64(v), float64(9-v))
		if math.Abs(dist[v]-want) > 1e-9 {
			t.Errorf("dist[%d]=%g want %g", v, dist[v], want)
		}
	}
}

func TestDeltaSteppingEmptyGraph(t *testing.T) {
	wg, err := graph.FromWeightedEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, rounds := runDelta(t, nil, wg, nil, 0, 1); rounds != 0 {
		t.Errorf("empty graph ran %d rounds, want 0", rounds)
	}
}

func TestDeltaSteppingNoSources(t *testing.T) {
	wg := unitWeighted(graph.Path(5))
	init := make([]float64, 5)
	for i := range init {
		init[i] = math.Inf(1)
	}
	dist, parent, _ := runDelta(t, nil, wg, init, 1, 1)
	for v, d := range dist {
		if !math.IsInf(d, 1) {
			t.Errorf("vertex %d reached without sources", v)
		}
		if parent[v] != uint32(v) {
			t.Errorf("vertex %d has foreign parent %d without sources", v, parent[v])
		}
	}
}

func TestDeltaSteppingQuickAgainstDijkstra(t *testing.T) {
	f := func(seed uint64, deltaRaw uint8) bool {
		g := graph.GNM(60, 150, seed%500)
		wg := graph.RandomWeights(g, 0.1, 4, seed)
		delta := 0.1 + float64(deltaRaw)/64
		a := bfs.DijkstraWeighted(wg, 0)
		b, _, _ := deltaFrom(t, wg, 0, delta, 3)
		for v := range a {
			if math.IsInf(a[v], 1) != math.IsInf(b[v], 1) {
				return false
			}
			if !math.IsInf(a[v], 1) && math.Abs(a[v]-b[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeltaSteppingRoundsScaleWithDelta(t *testing.T) {
	// Smaller delta => more buckets => more rounds (the depth/work knob).
	wg := graph.RandomWeights(graph.Grid2D(40, 40), 1, 4, 5)
	_, _, small := deltaFrom(t, wg, 0, 0.5, 2)
	_, _, large := deltaFrom(t, wg, 0, 50, 2)
	if small <= large {
		t.Errorf("rounds: delta=0.5 gives %d, delta=50 gives %d; expected more rounds at smaller delta",
			small, large)
	}
}

// TestDeltaSteppingSubUlpWeightsAcyclic is the regression test for the
// parent-cycle bug: when an edge weight is below half an ulp of the
// neighbor's distance, dist[u]+w rounds to dist[u] and adjacent vertices
// end with bit-identical distances — each explains the other exactly, so
// the parent resolution must break the tie (strictly decreasing
// (dist, id)) instead of building a 2-cycle.
func TestDeltaSteppingSubUlpWeightsAcyclic(t *testing.T) {
	wg, err := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1.0},
		{U: 1, V: 2, W: 1e-30},
		{U: 2, V: 3, W: 1e-30},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, parent, _ := runDelta(t, nil, wg, singleSource(4, 0), 0, 2)
	// Walk every parent chain; it must reach a self-parent within n steps.
	for v := range parent {
		x, steps := uint32(v), 0
		for parent[x] != x {
			x = parent[x]
			if steps++; steps > len(parent) {
				t.Fatalf("parent chain from %d cycles (parents=%v)", v, parent)
			}
		}
	}
	// Every non-source parent must be a neighbour that explains its
	// child's distance bit-exactly.
	for v, p := range parent {
		if uint32(v) == p {
			continue
		}
		w, ok := wg.Weight(p, uint32(v))
		if !ok {
			t.Fatalf("parent %d of %d is not a neighbour", p, v)
		}
		if math.Float64bits(dist[v]) != math.Float64bits(dist[p]+w) {
			t.Fatalf("parent %d does not explain dist of %d", p, v)
		}
	}
}
