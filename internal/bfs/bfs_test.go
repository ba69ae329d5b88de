package bfs

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

func TestSequentialPath(t *testing.T) {
	g := graph.Path(5)
	dist := Sequential(g, 0)
	for i, d := range dist {
		if d != int32(i) {
			t.Errorf("dist[%d]=%d", i, d)
		}
	}
}

func TestSequentialUnreachable(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dist := Sequential(g, 0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Error("unreachable vertices must be Unreached")
	}
}

func TestPseudoDiameterExactOnTrees(t *testing.T) {
	g := graph.Path(31)
	if d := PseudoDiameter(g); d != 30 {
		t.Errorf("path pseudo-diameter %d want 30", d)
	}
	tree := graph.BinaryTree(63)
	// Complete binary tree of height 5: diameter 10.
	if d := PseudoDiameter(tree); d != 10 {
		t.Errorf("tree pseudo-diameter %d want 10", d)
	}
}

// TestPseudoDiameterMatchesPerComponentSweeps checks the one-pass version
// against per-component double sweeps built from Sequential: start at the
// component's smallest vertex, restart at the smallest farthest vertex,
// and take the largest second-sweep eccentricity. The estimate must cover
// every component, not just vertex 0's.
func TestPseudoDiameterMatchesPerComponentSweeps(t *testing.T) {
	// An isolated vertex 0 next to a 400-vertex path (want 399).
	var pathEdges []graph.Edge
	for v := uint32(1); v < 400; v++ {
		pathEdges = append(pathEdges, graph.Edge{U: v, V: v + 1})
	}
	isolatedPlusPath, err := graph.FromEdges(401, pathEdges)
	if err != nil {
		t.Fatal(err)
	}
	edgeless, err := graph.FromEdges(3, nil) // want 0
	if err != nil {
		t.Fatal(err)
	}
	eccFrom := func(g *graph.Graph, s uint32) (far uint32, ecc int32) {
		far = s
		for v, d := range Sequential(g, s) {
			if d > ecc {
				far, ecc = uint32(v), d
			}
		}
		return far, ecc
	}
	for _, g := range []*graph.Graph{
		graph.GNM(500, 300, 1), // many components
		graph.GNM(500, 450, 2),
		graph.GNM(300, 1200, 3), // connected
		graph.Grid2D(17, 23),
		graph.RMAT(9, 600, 4),
		isolatedPlusPath,
		edgeless,
	} {
		labels, count := graph.ConnectedComponents(g)
		seen := make([]bool, count)
		var want int32
		for v, l := range labels {
			if seen[l] {
				continue
			}
			seen[l] = true
			far, _ := eccFrom(g, uint32(v))
			if _, ecc := eccFrom(g, far); ecc > want {
				want = ecc
			}
		}
		if got := PseudoDiameter(g); got != want {
			t.Errorf("%v: pseudo-diameter %d want %d", g, got, want)
		}
	}
}

func TestDijkstraWeightedMatchesBFSOnUnitWeights(t *testing.T) {
	base := graph.Grid2D(12, 12)
	var wedges []graph.WeightedEdge
	for _, e := range base.Edges() {
		wedges = append(wedges, graph.WeightedEdge{U: e.U, V: e.V, W: 1})
	}
	wg, err := graph.FromWeightedEdges(base.NumVertices(), wedges)
	if err != nil {
		t.Fatal(err)
	}
	bd := Sequential(base, 0)
	dd := DijkstraWeighted(wg, 0)
	for v := range bd {
		if float64(bd[v]) != dd[v] {
			t.Fatalf("dist[%d]: bfs %d dijkstra %g", v, bd[v], dd[v])
		}
	}
}

func TestDijkstraWeightedTriangleInequality(t *testing.T) {
	base := graph.GNM(100, 300, 8)
	wg := graph.RandomWeights(base, 1, 5, 2)
	dist := DijkstraWeighted(wg, 0)
	for v := 0; v < wg.NumVertices(); v++ {
		if math.IsInf(dist[v], 1) {
			continue
		}
		nbrs, ws := wg.Neighbors(uint32(v))
		for i, u := range nbrs {
			if dist[u] > dist[v]+ws[i]+1e-9 {
				t.Fatalf("triangle inequality violated at edge {%d,%d}", v, u)
			}
		}
	}
}
