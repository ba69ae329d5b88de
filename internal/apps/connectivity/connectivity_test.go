package connectivity

import (
	"testing"
	"testing/quick"

	"mpx/internal/core"
	"mpx/internal/graph"
)

func assertMatchesBFSLabels(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	want, count := graph.ConnectedComponents(g)
	if r.Components != count {
		t.Fatalf("components: got %d want %d", r.Components, count)
	}
	// Labels must induce the same partition: same-component iff same label.
	for v := 1; v < g.NumVertices(); v++ {
		sameWant := want[v] == want[0]
		sameGot := r.Label[v] == r.Label[0]
		if sameWant != sameGot {
			t.Fatalf("vertex %d grouping disagrees with BFS", v)
		}
	}
	// Canonical labels: the label is the smallest member of the component.
	for v := 0; v < g.NumVertices(); v++ {
		if r.Label[v] > uint32(v) {
			t.Fatalf("label[%d]=%d exceeds vertex id (not canonical)", v, r.Label[v])
		}
	}
}

func TestComponentsConnected(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Grid2D(25, 25),
		graph.Cycle(100),
		graph.Complete(30),
		graph.Hypercube(8),
	} {
		r, err := ComponentsPoolCtx(nil, nil, g, 0.4, 1, 2, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		if r.Components != 1 {
			t.Errorf("%v: %d components", g, r.Components)
		}
		for _, l := range r.Label {
			if l != 0 {
				t.Fatalf("connected graph should label everything 0")
			}
		}
	}
}

func TestComponentsDisconnected(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}, {U: 6, V: 7}, {U: 7, V: 8}}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ComponentsPoolCtx(nil, nil, g, 0.4, 2, 1, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBFSLabels(t, g, r)
	if r.Components != 5 { // {0,1,2},{3},{4,5},{6,7,8},{9}
		t.Errorf("components=%d want 5", r.Components)
	}
}

func TestComponentsEdgeDecay(t *testing.T) {
	g := graph.Torus2D(40, 40)
	r, err := ComponentsPoolCtx(nil, nil, g, 0.4, 3, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds < 2 {
		t.Skip("converged in one round; nothing to check")
	}
	// Geometric decay overall: the last round should see far fewer edges
	// than the first (expected factor beta per round).
	first := r.EdgesPerRound[0]
	last := r.EdgesPerRound[len(r.EdgesPerRound)-1]
	if last*2 > first {
		t.Errorf("edge decay too slow: first %d last %d (%v)", first, last, r.EdgesPerRound)
	}
}

func TestComponentsQuickAgainstBFS(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		n := 40
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: uint32(raw[i]) % uint32(n), V: uint32(raw[i+1]) % uint32(n)})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		r, err := ComponentsPoolCtx(nil, nil, g, 0.4, seed, 2, core.DirectionAuto)
		if err != nil {
			return false
		}
		want, count := graph.ConnectedComponents(g)
		if r.Components != count {
			return false
		}
		// Partition agreement via label-pair sampling over all vertices.
		repr := map[int32]uint32{}
		for v := 0; v < n; v++ {
			if prev, ok := repr[want[v]]; ok {
				if r.Label[v] != prev {
					return false
				}
			} else {
				repr[want[v]] = r.Label[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComponentsRejectsBadBeta(t *testing.T) {
	if _, err := ComponentsPoolCtx(nil, nil, graph.Path(4), 0, 0, 1, core.DirectionAuto); err == nil {
		t.Error("expected error")
	}
}

func TestComponentsEmptyAndEdgeless(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil)
	r, err := ComponentsPoolCtx(nil, nil, empty, 0.4, 0, 1, core.DirectionAuto)
	if err != nil || r.Components != 0 {
		t.Errorf("empty: %+v err=%v", r, err)
	}
	iso, _ := graph.FromEdges(5, nil)
	r, err = ComponentsPoolCtx(nil, nil, iso, 0.4, 0, 1, core.DirectionAuto)
	if err != nil || r.Components != 5 || r.Rounds != 0 {
		t.Errorf("edgeless: %+v err=%v", r, err)
	}
}

// TestComponentsPoolDirectionsBitIdentical: labels, round counts and
// per-round edge counts must be bit-identical at workers 1/2/8 and under
// push/pull/auto, like every other hierarchy app.
func TestComponentsPoolDirectionsBitIdentical(t *testing.T) {
	gs := map[string]*graph.Graph{
		"grid": graph.Grid2D(16, 19),
		"gnm":  graph.GNM(600, 1500, 5),
	}
	for name, g := range gs {
		base, err := ComponentsPoolCtx(nil, nil, g, 0.4, 1, 1, core.DirectionForcePush)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBFSLabels(t, g, base)
		dirs := []core.Direction{core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto}
		for _, dir := range dirs {
			for _, w := range []int{1, 2, 8} {
				r, err := ComponentsPoolCtx(nil, nil, g, 0.4, 1, w, dir)
				if err != nil {
					t.Fatal(err)
				}
				if r.Rounds != base.Rounds {
					t.Fatalf("%s dir=%v workers=%d: rounds %d want %d", name, dir, w, r.Rounds, base.Rounds)
				}
				for i := range base.Label {
					if r.Label[i] != base.Label[i] {
						t.Fatalf("%s dir=%v workers=%d: Label[%d] differs", name, dir, w, i)
					}
				}
				for i := range base.EdgesPerRound {
					if r.EdgesPerRound[i] != base.EdgesPerRound[i] {
						t.Fatalf("%s dir=%v workers=%d: EdgesPerRound[%d] differs", name, dir, w, i)
					}
				}
			}
		}
	}
}
