package core

import (
	"testing"

	"mpx/internal/graph"
)

// TestPartitionDirectionsBitIdentical is the tentpole determinism proof:
// push-only, pull-only, and auto-switching Partition must produce
// byte-identical Center/Dist/Parent arrays for fixed (graph, β, seed) at
// every worker count, because all three resolve each claim to the same
// minimum packed (rank, proposer) key.
func TestPartitionDirectionsBitIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(25, 30)},
		{"gnm", graph.GNM(400, 1600, 11)},
		{"rmat", graph.RMAT(9, 3000, 13)},
	}
	workerCounts := []int{1, 2, 8}
	seeds := []uint64{1, 42}
	for _, tc := range graphs {
		for _, seed := range seeds {
			base := mustPartition(t, tc.g, 0.15,
				Options{Seed: seed, Workers: 1, Direction: DirectionForcePush})
			for _, dir := range []Direction{DirectionForcePush, DirectionForcePull, DirectionAuto} {
				for _, w := range workerCounts {
					d := mustPartition(t, tc.g, 0.15,
						Options{Seed: seed, Workers: w, Direction: dir})
					for v := range base.Center {
						if base.Center[v] != d.Center[v] {
							t.Fatalf("%s seed=%d dir=%v workers=%d: Center[%d]=%d want %d",
								tc.name, seed, dir, w, v, d.Center[v], base.Center[v])
						}
						if base.Dist[v] != d.Dist[v] {
							t.Fatalf("%s seed=%d dir=%v workers=%d: Dist[%d]=%d want %d",
								tc.name, seed, dir, w, v, d.Dist[v], base.Dist[v])
						}
						if base.Parent[v] != d.Parent[v] {
							t.Fatalf("%s seed=%d dir=%v workers=%d: Parent[%d]=%d want %d",
								tc.name, seed, dir, w, v, d.Parent[v], base.Parent[v])
						}
					}
					if base.Rounds != d.Rounds {
						t.Fatalf("%s seed=%d dir=%v workers=%d: Rounds=%d want %d",
							tc.name, seed, dir, w, d.Rounds, base.Rounds)
					}
				}
			}
		}
	}
}

// TestPartitionPullValidOnFamilies runs the pull engine through the full
// structural validator on the same graph families the push engine is
// checked on.
func TestPartitionPullValidOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(200)},
		{"cycle", graph.Cycle(100)},
		{"grid", graph.Grid2D(20, 30)},
		{"complete", graph.Complete(40)},
		{"star", graph.Star(100)},
		{"hypercube", graph.Hypercube(8)},
		{"disconnected", mustFromEdges(t, 10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0.05, 0.2, 0.5} {
			d := mustPartition(t, tc.g, beta,
				Options{Seed: 42, Direction: DirectionForcePull})
			if err := d.Validate(); err != nil {
				t.Errorf("%s beta=%g: %v", tc.name, beta, err)
			}
		}
	}
}

// TestPartitionDirectionsWithOptions checks that the pull engine matches
// push under every option that feeds the claim resolution: tie-breaking
// mode and quantile shifts.
func TestPartitionDirectionsWithOptions(t *testing.T) {
	g := graph.Grid2D(22, 22)
	variants := []Options{
		{Seed: 3, TieBreak: TiePermutation},
		{Seed: 3, ShiftSource: ShiftQuantile},
	}
	for _, base := range variants {
		push := base
		push.Direction = DirectionForcePush
		pull := base
		pull.Direction = DirectionForcePull
		pull.Workers = 4
		dp := mustPartition(t, g, 0.05, push)
		dq := mustPartition(t, g, 0.05, pull)
		for v := range dp.Center {
			if dp.Center[v] != dq.Center[v] || dp.Dist[v] != dq.Dist[v] || dp.Parent[v] != dq.Parent[v] {
				t.Fatalf("opts %+v: push/pull mismatch at vertex %d", base, v)
			}
		}
	}
}

// TestPartitionPullMatchesSequentialReference anchors the pull engine to
// the heap-based sequential reference, not just to the push engine.
func TestPartitionPullMatchesSequentialReference(t *testing.T) {
	g := graph.GNM(250, 900, 5)
	opts := Options{Seed: 17, Workers: 4, Direction: DirectionForcePull}
	par := mustPartition(t, g, 0.15, opts)
	seq, err := PartitionSequential(g, 0.15, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range par.Center {
		if par.Center[v] != seq.Center[v] || par.Dist[v] != seq.Dist[v] {
			t.Fatalf("pull vs sequential mismatch at vertex %d", v)
		}
	}
}
