package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

func TestBallGrowingValid(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(300)},
		{"grid", graph.Grid2D(30, 30)},
		{"gnm", graph.GNM(400, 1200, 7)},
		{"complete", graph.Complete(30)},
		{"tree", graph.BinaryTree(127)},
		{"disconnected", mustFromEdges(t, 8, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0.1, 0.3} {
			d, err := BallGrowingCtx(nil, tc.g, beta, 42)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d.Shifts = nil // ball growing has no shifts; skip that check
			if err := d.Validate(); err != nil {
				t.Errorf("%s beta=%g: %v", tc.name, beta, err)
			}
		}
	}
}

func TestBallGrowingGuarantees(t *testing.T) {
	g := graph.Grid2D(60, 60)
	n := float64(g.NumVertices())
	for _, beta := range []float64{0.1, 0.2} {
		d, err := BallGrowingCtx(nil, g, beta, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Radius <= log_{1+beta}(2m) plus slack.
		bound := 3*math.Log(2*float64(g.NumEdges()))/math.Log(1+beta) + 2
		if float64(d.MaxRadius()) > bound {
			t.Errorf("beta=%g: radius %d exceeds bound %g", beta, d.MaxRadius(), bound)
		}
		// Cut <= 2 beta m plus generous slack for a single run.
		if cf := d.CutFraction(); cf > 4*beta {
			t.Errorf("beta=%g: cut fraction %g too high", beta, cf)
		}
		_ = n
	}
}

func TestBallGrowingRejectsBadBeta(t *testing.T) {
	g := graph.Path(4)
	for _, beta := range []float64{0, 1} {
		if _, err := BallGrowingCtx(nil, g, beta, 0); err == nil {
			t.Errorf("beta=%g: expected error", beta)
		}
	}
}

func TestBallGrowingEmptyAndSingleton(t *testing.T) {
	empty := mustFromEdges(t, 0, nil)
	if d, err := BallGrowingCtx(nil, empty, 0.1, 0); err != nil || d.NumClusters() != 0 {
		t.Errorf("empty: d=%v err=%v", d, err)
	}
	single := mustFromEdges(t, 1, nil)
	d, err := BallGrowingCtx(nil, single, 0.1, 0)
	if err != nil || d.NumClusters() != 1 {
		t.Errorf("single: clusters=%d err=%v", d.NumClusters(), err)
	}
}

func TestPartitionIterativeValid(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(200),
		graph.Grid2D(25, 25),
		graph.GNM(300, 800, 3),
	}
	for gi, g := range cases {
		d, err := PartitionIterativeCtx(nil, g, 0.1, 5, 1)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		d.Shifts = nil
		if err := d.Validate(); err != nil {
			t.Errorf("graph %d: %v", gi, err)
		}
	}
}

func TestPartitionIterativeRejectsBadBeta(t *testing.T) {
	if _, err := PartitionIterativeCtx(nil, graph.Path(4), 0, 0, 1); err == nil {
		t.Error("expected error for beta=0")
	}
}

func TestWeightedPartitionValid(t *testing.T) {
	base := graph.Grid2D(20, 20)
	wg := graph.RandomWeights(base, 1, 10, 99)
	for _, beta := range []float64{0.05, 0.2} {
		d, err := PartitionWeighted(wg, beta, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("beta=%g: %v", beta, err)
		}
		if d.MaxRadius() > d.DeltaMax {
			t.Errorf("beta=%g: weighted radius %g exceeds delta max %g", beta, d.MaxRadius(), d.DeltaMax)
		}
	}
}

// TestWeightedPartitionUnitWeightsMatchUnweightedQuality pins the two
// callers of shiftedDijkstra together: with all weights 1 the weighted
// algorithm is Algorithm 2 exactly, so on a unit-weight lift
// PartitionWeighted must return PartitionExact's Center and Parent,
// numerically equal Dist, and the same shifts, across graph families
// (isolated vertices included) and both shift sources.
func TestWeightedPartitionUnitWeightsMatchUnweightedQuality(t *testing.T) {
	edgeless, err := graph.FromEdges(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"grid":     graph.Grid2D(15, 15),
		"gnm":      graph.GNM(300, 900, 3),
		"powerlaw": graph.RMAT(9, 1500, 2),
		"path":     graph.Path(120),
		"edgeless": edgeless,
	}
	for name, g := range graphs {
		wg := graph.RandomWeights(g, 1, 1, 0)
		for _, opts := range []Options{{Seed: 31}, {Seed: 7, ShiftSource: ShiftQuantile}} {
			ud, err := PartitionExact(g, 0.15, opts)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := PartitionWeighted(wg, 0.15, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ud.DeltaMax != wd.DeltaMax {
				t.Fatalf("%s %+v: DeltaMax %g vs %g", name, opts, ud.DeltaMax, wd.DeltaMax)
			}
			for v := range ud.Center {
				if ud.Center[v] != wd.Center[v] || ud.Parent[v] != wd.Parent[v] ||
					float64(ud.Dist[v]) != wd.Dist[v] || ud.Shifts[v] != wd.Shifts[v] {
					t.Fatalf("%s %+v: vertex %d: exact (center %d, parent %d, dist %d) vs weighted (%d, %d, %g)",
						name, opts, v, ud.Center[v], ud.Parent[v], ud.Dist[v], wd.Center[v], wd.Parent[v], wd.Dist[v])
				}
			}
		}
	}
}

func TestWeightedPartitionCutScalesWithBeta(t *testing.T) {
	base := graph.Grid2D(40, 40)
	wg := graph.RandomWeights(base, 1, 3, 7)
	lo, err := PartitionWeighted(wg, 0.02, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := PartitionWeighted(wg, 0.4, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if lo.CutEdgeFraction() >= hi.CutEdgeFraction() {
		t.Errorf("cut fraction should grow with beta: lo=%g hi=%g",
			lo.CutEdgeFraction(), hi.CutEdgeFraction())
	}
}

func TestWeightedPartitionRejectsBadBeta(t *testing.T) {
	wg := graph.RandomWeights(graph.Path(4), 1, 2, 0)
	if _, err := PartitionWeighted(wg, 1.5, Options{}); err == nil {
		t.Error("expected error for beta=1.5")
	}
}

func TestBaselinesCoverEveryVertexOnce(t *testing.T) {
	g := graph.GNM(250, 700, 19)
	bg, err := BallGrowingCtx(nil, g, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	it, err := PartitionIterativeCtx(nil, g, 0.15, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Decomposition{bg, it} {
		total := 0
		for _, s := range d.ClusterSizes() {
			total += s
		}
		if total != g.NumVertices() {
			t.Errorf("cluster sizes sum to %d, want %d", total, g.NumVertices())
		}
	}
}
