package separator

import (
	"math"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

func TestFindOnGrid(t *testing.T) {
	g := graph.Grid2D(30, 30)
	r, err := FindPoolCtx(nil, nil, g, 0, 2.0/3, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Balance > 2.0/3 {
		t.Errorf("balance %g exceeds 2/3", r.Balance)
	}
	if len(r.Separator) == 0 {
		t.Error("empty separator on a connected grid")
	}
	// Shape guard: separator should be O(sqrt(n) polylog), far below n.
	n := float64(g.NumVertices())
	if float64(len(r.Separator)) > 8*math.Sqrt(n)*math.Log(n) {
		t.Errorf("separator size %d too large for a grid (n=%d)", len(r.Separator), int(n))
	}
}

func TestFindExplicitBeta(t *testing.T) {
	g := graph.Grid2D(20, 20)
	r, err := FindPoolCtx(nil, nil, g, 0.3, 2.0/3, 2, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if r.Beta != 0.3 {
		t.Errorf("beta %g", r.Beta)
	}
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
}

func TestFindRejectsBadImbalance(t *testing.T) {
	g := graph.Path(10)
	for _, mi := range []float64{0.5, 1.0, 0, -1} {
		if _, err := FindPoolCtx(nil, nil, g, 0.2, mi, 0, 0, core.DirectionAuto); err == nil {
			t.Errorf("maxImbalance=%g: expected error", mi)
		}
	}
}

func TestFindFailsWhenPieceTooLarge(t *testing.T) {
	// With tiny beta on a small graph a single piece holds everything and
	// no balanced split exists at that beta; auto-tuning escalates, an
	// explicit beta errors.
	g := graph.Complete(20)
	if _, err := FindPoolCtx(nil, nil, g, 0.01, 0.6, 1, 0, core.DirectionAuto); err == nil {
		t.Error("expected failure with one giant piece at explicit tiny beta")
	}
}

func TestFindEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdges(0, nil)
	r, err := FindPoolCtx(nil, nil, g, 0.2, 0.66, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Separator) != 0 {
		t.Error("empty graph separator should be empty")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	bad := &Result{SideA: []uint32{0, 1}, SideB: []uint32{2, 3}}
	if err := Verify(g, bad); err == nil {
		t.Error("expected adjacency violation")
	}
	missing := &Result{SideA: []uint32{0}, SideB: []uint32{3}, Separator: []uint32{1}}
	if err := Verify(g, missing); err == nil {
		t.Error("expected unassigned-vertex violation")
	}
}

func TestSeparatorOnRoadNetwork(t *testing.T) {
	g0 := graph.RoadNetwork(40, 40, 0.85, 20, 5)
	g, _ := graph.LargestComponent(g0)
	r, err := FindPoolCtx(nil, nil, g, 0, 0.7, 3, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Balance > 0.7 {
		t.Errorf("balance %g", r.Balance)
	}
}

func TestSeparatorDisconnectedGraph(t *testing.T) {
	g, err := graph.FromEdges(8, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	r, errF := FindPoolCtx(nil, nil, g, 0.5, 0.6, 1, 0, core.DirectionAuto)
	if errF != nil {
		t.Fatal(errF)
	}
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	// Disconnected components balance without any separator vertices.
	if r.Balance > 0.6 {
		t.Errorf("balance %g", r.Balance)
	}
}
