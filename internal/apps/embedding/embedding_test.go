package embedding

import (
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

func TestBuildBasicShape(t *testing.T) {
	g := graph.Grid2D(15, 15)
	tr, err := BuildPoolCtx(nil, nil, g, 0, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Levels < 3 {
		t.Errorf("expected several levels, got %d", tr.Levels)
	}
}

func TestDistProperties(t *testing.T) {
	g := graph.Grid2D(12, 12)
	tr, err := BuildPoolCtx(nil, nil, g, 0, 2, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Identity, symmetry, positivity.
	if tr.Dist(5, 5) != 0 {
		t.Error("Dist(v,v) != 0")
	}
	for u := uint32(0); u < 12; u++ {
		for v := u + 1; v < 24; v += 3 {
			a, b := tr.Dist(u, v), tr.Dist(v, u)
			if a != b {
				t.Fatalf("asymmetric: Dist(%d,%d)=%g Dist(%d,%d)=%g", u, v, a, v, u, b)
			}
			if a <= 0 {
				t.Fatalf("non-positive distance for distinct vertices: %g", a)
			}
		}
	}
}

func TestTreeMetricUltrametricInequality(t *testing.T) {
	// Hierarchical trees give an ultrametric-like bound:
	// Dist(u,w) <= max(Dist(u,v), Dist(v,w)) for all triples, because
	// separation levels satisfy sep(u,w) >= min(sep(u,v), sep(v,w)).
	g := graph.GNM(60, 180, 3)
	tr, err := BuildPoolCtx(nil, nil, g, 0, 3, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 20; u++ {
		for v := uint32(20); v < 40; v += 2 {
			for w := uint32(40); w < 60; w += 3 {
				duw := tr.Dist(u, w)
				duv, dvw := tr.Dist(u, v), tr.Dist(v, w)
				max := duv
				if dvw > max {
					max = dvw
				}
				if duw > max+1e-9 {
					t.Fatalf("ultrametric violated: d(%d,%d)=%g > max(%g,%g)", u, w, duw, duv, dvw)
				}
			}
		}
	}
}

func TestMeasureDistortionDominates(t *testing.T) {
	g := graph.Grid2D(20, 20)
	tr, err := BuildPoolCtx(nil, nil, g, 0, 4, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.MeasureDistortion(100, 7)
	if st.Pairs != 100 {
		t.Fatalf("sampled %d pairs", st.Pairs)
	}
	if st.DominatedFrac < 0.99 {
		t.Errorf("tree metric dominates only %.2f of pairs", st.DominatedFrac)
	}
	if st.MeanDistortion < 1 {
		t.Errorf("mean distortion %g below 1", st.MeanDistortion)
	}
	// Polylog shape guard: distortion should not be anywhere near n.
	if st.MaxDistortion > 200 {
		t.Errorf("max distortion %g absurd for 400-vertex grid", st.MaxDistortion)
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil)
	if _, err := BuildPoolCtx(nil, nil, empty, 0, 0, 0, core.DirectionAuto); err != nil {
		t.Fatal(err)
	}
	single, _ := graph.FromEdges(1, nil)
	tr, err := BuildPoolCtx(nil, nil, single, 0, 0, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.MeasureDistortion(10, 1); st.Pairs != 0 {
		t.Error("no pairs to sample on a single vertex")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := graph.Torus2D(10, 10)
	a, err := BuildPoolCtx(nil, nil, g, 0, 9, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPoolCtx(nil, nil, g, 0, 9, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 100; u += 7 {
		for v := uint32(1); v < 100; v += 11 {
			if a.Dist(u, v) != b.Dist(u, v) {
				t.Fatalf("nondeterministic embedding at (%d,%d)", u, v)
			}
		}
	}
}

// TestDefaultDiameterCoversEveryComponent is the regression test for the
// default diameter on disconnected graphs: it must span the largest
// component, not just vertex 0's. With an isolated vertex 0 next to a
// 400-vertex path, a hierarchy started from vertex 0's diameter is too
// fine and the tree metric stops dominating path distances.
func TestDefaultDiameterCoversEveryComponent(t *testing.T) {
	const pathLen = 400
	var edges []graph.Edge
	var wedges []graph.WeightedEdge
	for v := uint32(1); v < pathLen; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
		wedges = append(wedges, graph.WeightedEdge{U: v, V: v + 1, W: 1})
	}
	g, err := graph.FromEdges(pathLen+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := graph.FromWeightedEdges(pathLen+1, wedges)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildPoolCtx(nil, nil, g, 0, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	wtr, err := BuildWeightedPoolCtx(nil, nil, wg, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	undominated, wundominated := 0, 0
	for v := uint32(2); v <= pathLen; v++ {
		dg := float64(v - 1) // path distance from vertex 1
		if tr.Dist(1, v) < dg {
			undominated++
		}
		if wtr.Dist(1, v) < dg {
			wundominated++
		}
	}
	if undominated > 0 || wundominated > 0 {
		t.Fatalf("tree metric fails to dominate %d (weighted: %d) of %d path pairs",
			undominated, wundominated, pathLen-1)
	}
}
