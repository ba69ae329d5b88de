package core

import (
	"sync"
	"testing"

	"mpx/internal/graph"
)

// Stress and failure-injection tests: adversarial shapes for the round
// machinery, concurrent use, and resource-pressure scenarios.

func TestPartitionManyRoundsTinyBeta(t *testing.T) {
	// Tiny beta => huge shifts => thousands of rounds with long empty
	// stretches the clock must fast-forward over.
	g := graph.Path(50)
	d := mustPartition(t, g, 0.002, Options{Seed: 1})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumClusters() < 1 {
		t.Error("no clusters")
	}
}

func TestPartitionStarHighContention(t *testing.T) {
	// Every leaf proposes to the hub (or the hub to every leaf) in one
	// round: maximal CAS contention on a single claim word.
	g := graph.Star(20000)
	d := mustPartition(t, g, 0.3, Options{Seed: 2, Workers: 8})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCompleteGraphOneRoundClaimsAll(t *testing.T) {
	// Dense graph: one cluster typically absorbs everything within two
	// rounds; exercises the full-frontier path.
	g := graph.Complete(300)
	d := mustPartition(t, g, 0.05, Options{Seed: 3, Workers: 4})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.MaxRadius() > 2 {
		t.Errorf("complete-graph radius %d", d.MaxRadius())
	}
}

func TestPartitionConcurrentCallersShareGraph(t *testing.T) {
	// The graph is immutable; many concurrent Partition calls on the same
	// graph must not interfere. Run under -race in CI.
	g := graph.Grid2D(40, 40)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([]*Decomposition, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d, err := Partition(g, 0.1, Options{Seed: 77, Workers: 2})
			outs[k], errs[k] = d, err
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", k, err)
		}
	}
	for k := 1; k < 8; k++ {
		for v := range outs[0].Center {
			if outs[0].Center[v] != outs[k].Center[v] {
				t.Fatalf("concurrent callers diverged at vertex %d", v)
			}
		}
	}
}

func TestPartitionIsolatedVertices(t *testing.T) {
	// Graph of only isolated vertices: everyone self-starts; the clock
	// fast-forwards across every bucket.
	g := mustFromEdges(t, 200, nil)
	d := mustPartition(t, g, 0.05, Options{Seed: 4})
	if d.NumClusters() != 200 {
		t.Errorf("clusters=%d want 200", d.NumClusters())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionExtremeWorkerCounts(t *testing.T) {
	g := graph.Grid2D(15, 15)
	base := mustPartition(t, g, 0.2, Options{Seed: 5, Workers: 1})
	for _, w := range []int{-1, 1000} {
		d := mustPartition(t, g, 0.2, Options{Seed: 5, Workers: w})
		for v := range base.Center {
			if d.Center[v] != base.Center[v] {
				t.Fatalf("workers=%d diverged", w)
			}
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	// Failure injection: corrupt each invariant and check Validate trips.
	g := graph.Grid2D(10, 10)
	fresh := func() *Decomposition {
		d := mustPartition(t, g, 0.2, Options{Seed: 6})
		return d
	}
	cases := []struct {
		name    string
		corrupt func(*Decomposition)
	}{
		{"foreign center", func(d *Decomposition) {
			for v, c := range d.Center {
				if uint32(v) != c {
					d.Center[v] = uint32(v) // fake self-center with nonzero dist
					if d.Dist[v] != 0 {
						return
					}
				}
			}
		}},
		{"bad dist", func(d *Decomposition) {
			for v := range d.Dist {
				if d.Dist[v] > 0 {
					d.Dist[v]++
					return
				}
			}
		}},
		{"bad parent", func(d *Decomposition) {
			for v, c := range d.Center {
				if uint32(v) != c && d.Dist[v] > 1 {
					d.Parent[v] = c // probably not adjacent
					if !d.G.HasEdge(c, uint32(v)) {
						return
					}
				}
			}
		}},
		{"center out of range", func(d *Decomposition) {
			d.Center[0] = uint32(d.NumVertices() + 5)
		}},
		{"parent out of range", func(d *Decomposition) {
			for v, c := range d.Center {
				if uint32(v) != c {
					d.Parent[v] = uint32(d.NumVertices() + 5)
					return
				}
			}
		}},
	}
	for _, tc := range cases {
		d := fresh()
		tc.corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted decomposition", tc.name)
		}
	}
}

// TestWeightedValidateDetectsCorruption is TestValidateDetectsCorruption
// for weighted decompositions: a tree edge missing from the graph and an
// out-of-range center or parent are reported as errors, not panics.
func TestWeightedValidateDetectsCorruption(t *testing.T) {
	wg := graph.RandomWeights(graph.Path(200), 1, 4, 3)
	fresh := func() *WeightedDecomposition {
		d, err := PartitionWeighted(wg, 0.05, Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("uncorrupted decomposition: %v", err)
		}
		return d
	}
	// farMember returns a vertex two or more path steps from its center,
	// so the center is in its piece but not its neighbor.
	farMember := func(d *WeightedDecomposition) int {
		for v, c := range d.Center {
			if v > int(c)+1 || v+1 < int(c) {
				return v
			}
		}
		t.Fatal("no piece spans three path vertices")
		return 0
	}
	n := uint32(wg.NumVertices())
	cases := []struct {
		name    string
		corrupt func(*WeightedDecomposition)
	}{
		{"non-edge parent", func(d *WeightedDecomposition) {
			v := farMember(d)
			d.Parent[v] = d.Center[v]
		}},
		{"center out of range", func(d *WeightedDecomposition) {
			d.Center[0] = n + 5
		}},
		{"parent out of range", func(d *WeightedDecomposition) {
			d.Parent[farMember(d)] = n + 5
		}},
	}
	for _, tc := range cases {
		d := fresh()
		tc.corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted decomposition", tc.name)
		}
	}
}

func TestPartitionVeryHighBeta(t *testing.T) {
	// beta near 1: Exp(0.99) shifts have mean ~1, so pieces are small and
	// plentiful (with this seed, ~84 pieces on a 400-vertex grid vs ~30 at
	// beta=0.3).
	g := graph.Grid2D(20, 20)
	d := mustPartition(t, g, 0.99, Options{Seed: 7})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	mid := mustPartition(t, g, 0.3, Options{Seed: 7})
	if d.NumClusters() <= mid.NumClusters() {
		t.Errorf("beta=0.99 gives %d clusters, beta=0.3 gives %d; expected more at higher beta",
			d.NumClusters(), mid.NumClusters())
	}
}
