package blocks

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
)

func TestDecomposePartitionsEdges(t *testing.T) {
	g := graph.Grid2D(20, 20)
	bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 1, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if bd.EdgeCount() != g.NumEdges() {
		t.Errorf("blocks hold %d edges, graph has %d", bd.EdgeCount(), g.NumEdges())
	}
	// Every edge in exactly one block.
	seen := make(map[graph.Edge]int)
	for _, b := range bd.Blocks {
		for _, e := range b.Edges {
			seen[e]++
		}
	}
	for e, c := range seen {
		if c != 1 {
			t.Errorf("edge %v appears %d times", e, c)
		}
	}
}

func TestDecomposeBlockCountLogarithmic(t *testing.T) {
	g := graph.Grid2D(40, 40)
	bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 2, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	bound := 4*math.Log2(float64(g.NumEdges())) + 8
	if float64(bd.NumBlocks()) > bound {
		t.Errorf("%d blocks exceeds %g", bd.NumBlocks(), bound)
	}
	if bd.NumBlocks() < 1 {
		t.Error("expected at least one block")
	}
}

func TestDecomposeComponentDiameters(t *testing.T) {
	g := graph.Grid2D(15, 15)
	bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 3, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	diams := bd.ComponentDiameters()
	n := float64(g.NumVertices())
	bound := int32(12*math.Log(n)/0.5) + 2
	for bi, ds := range diams {
		for _, d := range ds {
			if d > bound {
				t.Errorf("block %d: component diameter %d exceeds %d", bi, d, bound)
			}
			// Component diameter is also at most twice the recorded radius.
			if d > 2*bd.Blocks[bi].MaxComponentRadius {
				t.Errorf("block %d: diameter %d exceeds 2x radius %d",
					bi, d, bd.Blocks[bi].MaxComponentRadius)
			}
		}
	}
}

func TestDecomposeGeometricEdgeDecay(t *testing.T) {
	// With beta = 1/2 the expected cut is half the edges; check the block
	// sizes decay overall (first block holds more than the average).
	g := graph.Torus2D(30, 30)
	bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 4, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Blocks) < 2 {
		t.Skip("single block; nothing to compare")
	}
	first := len(bd.Blocks[0].Edges)
	avg := float64(bd.EdgeCount()) / float64(bd.NumBlocks())
	if float64(first) < avg {
		t.Errorf("first block %d below average %g — decay shape broken", first, avg)
	}
}

func TestDecomposeRejectsBadBeta(t *testing.T) {
	if _, err := DecomposePoolCtx(nil, nil, graph.Path(4), 0, 0, 0, 0, core.DirectionAuto); err == nil {
		t.Error("expected error")
	}
}

// TestUndrainedResidualNamesMaxIters checks that a residual still holding
// edges after maxIters levels fails as hier.ErrMaxLevels naming maxIters —
// not as core.ErrBeta, since β = 0.2 is valid — in the plain, weighted and
// incremental builders and in an incremental update.
func TestUndrainedResidualNamesMaxIters(t *testing.T) {
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, hier.ErrMaxLevels) || errors.Is(err, core.ErrBeta) {
			t.Fatalf("%s: err = %v, want hier.ErrMaxLevels and not core.ErrBeta", name, err)
		}
		if !strings.Contains(err.Error(), "maxIters=1") {
			t.Fatalf("%s: error %q does not name maxIters", name, err)
		}
	}
	g := graph.Grid2D(30, 30)
	_, err := DecomposePoolCtx(nil, nil, g, 0.2, 1, 1, 0, core.DirectionAuto)
	check("DecomposePoolCtx", err)
	_, err = BuildIncrementalPoolCtx(nil, nil, g, 0.2, 1, 1, 0, core.DirectionAuto)
	check("BuildIncrementalPoolCtx", err)
	_, err = DecomposeWeightedPoolCtx(nil, nil, graph.RandomWeights(g, 1, 2, 3), 0.2, 1, 1, 0)
	check("DecomposeWeightedPoolCtx", err)

	// An edgeless graph drains at once; inserting the grid's edges does not.
	empty, err := graph.FromEdges(g.NumVertices(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := BuildIncrementalPoolCtx(nil, nil, empty, 0.2, 1, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inc.UpdateCtx(nil, graph.Batch{Insert: g.Edges()})
	check("Incremental.UpdateCtx", err)
}

func TestDecomposeEdgelessGraph(t *testing.T) {
	g, _ := graph.FromEdges(5, nil)
	bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 0, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if bd.NumBlocks() != 0 {
		t.Errorf("edgeless graph: %d blocks", bd.NumBlocks())
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	g := graph.GNM(150, 500, 9)
	a, err := DecomposePoolCtx(nil, nil, g, 0.5, 7, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecomposePoolCtx(nil, nil, g, 0.5, 7, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatalf("block counts differ: %d vs %d", a.NumBlocks(), b.NumBlocks())
	}
	for i := range a.Blocks {
		if len(a.Blocks[i].Edges) != len(b.Blocks[i].Edges) {
			t.Fatalf("block %d sizes differ", i)
		}
	}
}
