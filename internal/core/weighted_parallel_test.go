package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

func TestWeightedParallelMatchesSequentialQuality(t *testing.T) {
	// Same shifts => same shifted-distance minimization => identical
	// assignment (up to fp ties, which fixed seeds make deterministic).
	base := graph.Grid2D(25, 25)
	wg := graph.RandomWeights(base, 1, 5, 11)
	opts := Options{Seed: 21}
	seq, err := PartitionWeighted(wg, 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := PartitionWeightedParallel(wg, 0.1, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := 0
	for v := range seq.Center {
		if seq.Center[v] != par.Center[v] {
			mismatch++
		}
		if math.Abs(seq.Dist[v]-par.Dist[v]) > 1e-9 {
			t.Fatalf("Dist[%d]=%g, sequential has %g", v, par.Dist[v], seq.Dist[v])
		}
	}
	// Allow a tiny number of fp-tie divergences; none expected with these
	// seeds.
	if mismatch > 0 {
		t.Errorf("%d/%d center assignments differ between sequential and parallel weighted",
			mismatch, len(seq.Center))
	}
	if math.Abs(seq.CutWeightFraction()-par.CutWeightFraction()) > 1e-9 {
		t.Errorf("cut weight fractions differ: %g vs %g",
			seq.CutWeightFraction(), par.CutWeightFraction())
	}
}

// TestWeightedParallelValidates runs the engine through the structural
// validator on a GNM graph and across graph families and β values.
func TestWeightedParallelValidates(t *testing.T) {
	wg := graph.RandomWeights(graph.GNM(400, 1200, 5), 0.5, 3, 9)
	d, err := PartitionWeightedParallel(wg, 0.15, 0, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	if d.Rounds <= 0 {
		t.Error("expected positive round count")
	}
	cases := []struct {
		name string
		wg   *graph.WeightedGraph
	}{
		{"path", graph.RandomWeights(graph.Path(200), 1, 3, 1)},
		{"cycle", graph.RandomWeights(graph.Cycle(100), 0.5, 2, 2)},
		{"grid", graph.RandomWeights(graph.Grid2D(15, 20), 1, 8, 3)},
		{"complete", graph.RandomWeights(graph.Complete(40), 1, 2, 4)},
		{"star", graph.RandomWeights(graph.Star(100), 1, 4, 5)},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0.05, 0.2, 0.5} {
			d := mustPartitionWeighted(t, tc.wg, beta, Options{Seed: 42, Workers: 4})
			if err := d.Validate(); err != nil {
				t.Errorf("%s beta=%g: %v", tc.name, beta, err)
			}
		}
	}
}

func TestWeightedParallelDeterministicAcrossWorkers(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(20, 20), 1, 3, 3)
	a, err := PartitionWeightedParallel(wg, 0.2, 1.0, Options{Seed: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionWeightedParallel(wg, 0.2, 1.0, Options{Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("Rounds %d at workers=1, %d at workers=4", a.Rounds, b.Rounds)
	}
	for v := range a.Center {
		if a.Center[v] != b.Center[v] {
			t.Fatalf("center mismatch at %d across worker counts", v)
		}
		if math.Abs(a.Dist[v]-b.Dist[v]) > 1e-9 {
			t.Fatalf("dist mismatch at %d across worker counts", v)
		}
	}
}

func TestWeightedParallelRejectsBadBeta(t *testing.T) {
	wg := graph.RandomWeights(graph.Path(4), 1, 2, 0)
	if _, err := PartitionWeightedParallel(wg, 0, 0, Options{}); err == nil {
		t.Error("expected error")
	}
}

func TestWeightedParallelEmptyGraph(t *testing.T) {
	wg, err := graph.FromWeightedEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := PartitionWeightedParallel(wg, 0.1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClusters() != 0 {
		t.Error("empty graph decomposition should be empty")
	}
}

func TestDefaultDelta(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(10, 10), 2, 4, 1)
	d := DefaultDelta(wg)
	if d <= 0 {
		t.Errorf("DefaultDelta %g", d)
	}
	empty, _ := graph.FromWeightedEdges(0, nil)
	if DefaultDelta(empty) != 1 {
		t.Error("empty default should be 1")
	}
	isolated, _ := graph.FromWeightedEdges(3, nil)
	if DefaultDelta(isolated) != 1 {
		t.Error("edgeless default should be 1")
	}
}

func TestWeightedParallelRadiusBound(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(30, 30), 1, 2, 6)
	d, err := PartitionWeightedParallel(wg, 0.05, 0, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxRadius() > d.DeltaMax+1e-9 {
		t.Errorf("weighted radius %g exceeds delta max %g", d.MaxRadius(), d.DeltaMax)
	}
}
