package lowstretch

import (
	"testing"

	"mpx/internal/bfs"
	"mpx/internal/core"
	"mpx/internal/graph"
)

func TestBuildSpanningTreeOnGrid(t *testing.T) {
	g := graph.Grid2D(20, 20)
	tr, err := BuildPoolCtx(nil, nil, g, 0.3, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != g.NumVertices()-1 {
		t.Errorf("tree has %d edges, want %d", len(tr.Edges), g.NumVertices()-1)
	}
	if tr.Levels < 1 {
		t.Error("expected at least one level")
	}
}

func TestTreeDistMatchesBFSOnTreeSubgraph(t *testing.T) {
	g := graph.Grid2D(10, 12)
	tr, err := BuildPoolCtx(nil, nil, g, 0.25, 2, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := graph.FromEdges(g.NumVertices(), tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	// LCA-based Dist must equal BFS distance in the tree subgraph.
	for _, src := range []uint32{0, 17, 63} {
		dist := bfs.Sequential(sub, src)
		for v := 0; v < g.NumVertices(); v++ {
			if got := tr.Dist(src, uint32(v)); got != dist[v] {
				t.Fatalf("Dist(%d,%d)=%d, BFS says %d", src, v, got, dist[v])
			}
		}
	}
}

func TestStretchStatsSane(t *testing.T) {
	g := graph.Grid2D(25, 25)
	tr, err := BuildPoolCtx(nil, nil, g, 0.3, 3, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stretch()
	if st.Edges != g.NumEdges() {
		t.Errorf("stretch over %d edges, want %d", st.Edges, g.NumEdges())
	}
	if st.Mean < 1 {
		t.Errorf("mean stretch %g below 1 (tree distance of an edge is >= 1)", st.Mean)
	}
	if int64(st.Max) > 2*int64(g.NumVertices()) {
		t.Errorf("max stretch %d absurd", st.Max)
	}
}

func TestBFSTreeBaseline(t *testing.T) {
	g := graph.Torus2D(20, 20)
	tr, err := BFSTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != g.NumVertices()-1 {
		t.Errorf("BFS tree has %d edges", len(tr.Edges))
	}
	st := tr.Stretch()
	if st.Mean < 1 {
		t.Errorf("mean %g", st.Mean)
	}
}

func TestLowStretchBeatsBFSOnGrid(t *testing.T) {
	// The classical motivating example: on a √n×√n grid a BFS tree has
	// average stretch Θ(√n) while the AKPW-style tree keeps the average
	// polylogarithmic. With this seed the gap is > 2x, so this is a robust
	// shape test (32x32 grid: BFS mean ≈ 16.5, AKPW mean ≈ 7.2).
	g := graph.Grid2D(32, 32)
	bfsTree, err := BFSTree(g)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := BuildPoolCtx(nil, nil, g, 0.2, 4, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, l := bfsTree.Stretch(), ls.Stretch()
	if l.Mean >= b.Mean {
		t.Errorf("low-stretch mean %g not better than BFS mean %g", l.Mean, b.Mean)
	}
}

func TestForestOnDisconnectedGraph(t *testing.T) {
	g, err := graph.FromEdges(7, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildPoolCtx(nil, nil, g, 0.3, 5, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Spanning forest: n - #components edges. Components: {0,1,2},{3,4,5},{6}.
	if len(tr.Edges) != 4 {
		t.Errorf("forest has %d edges, want 4", len(tr.Edges))
	}
	if d := tr.Dist(0, 3); d != -1 {
		t.Errorf("cross-component Dist=%d, want -1", d)
	}
	if d := tr.Dist(0, 2); d != 2 {
		t.Errorf("Dist(0,2)=%d want 2", d)
	}
}

func TestBuildRejectsBadBeta(t *testing.T) {
	if _, err := BuildPoolCtx(nil, nil, graph.Path(4), 1.5, 0, 0, core.DirectionAuto); err == nil {
		t.Error("expected error")
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil)
	if _, err := BuildPoolCtx(nil, nil, empty, 0.3, 0, 0, core.DirectionAuto); err != nil {
		t.Errorf("empty graph: %v", err)
	}
	single, _ := graph.FromEdges(1, nil)
	tr, err := BuildPoolCtx(nil, nil, single, 0.3, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != 0 {
		t.Error("single vertex tree should have no edges")
	}
}

func TestLCASymmetricAndIdempotent(t *testing.T) {
	g := graph.BinaryTree(63)
	tr, err := BuildPoolCtx(nil, nil, g, 0.4, 6, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 63; u += 7 {
		for v := uint32(0); v < 63; v += 5 {
			if tr.LCA(u, v) != tr.LCA(v, u) {
				t.Fatalf("LCA not symmetric for (%d,%d)", u, v)
			}
		}
		if tr.LCA(u, u) != u {
			t.Fatalf("LCA(%d,%d) != %d", u, u, u)
		}
	}
}
