package core

import (
	"fmt"
	"runtime"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// samePartition fails the test unless the two decompositions are
// bit-identical in every assignment field.
func samePartition(t *testing.T, label string, a, b *Decomposition) {
	t.Helper()
	for v := range a.Center {
		if a.Center[v] != b.Center[v] || a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("%s: vertex %d differs: center %d/%d dist %d/%d parent %d/%d",
				label, v, a.Center[v], b.Center[v], a.Dist[v], b.Dist[v], a.Parent[v], b.Parent[v])
		}
	}
}

// TestPartitionPoolDeterminism runs Partition on one explicit pool at
// worker counts 1, 2 and 8 in every traversal direction and requires
// bit-identical decompositions — the pool scheduler must not leak physical
// scheduling into results.
func TestPartitionPoolDeterminism(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid2D(60, 60),
		"gnm":  graph.GNM(5000, 20000, 7),
	}
	dirs := []Direction{DirectionAuto, DirectionForcePush, DirectionForcePull}
	for name, g := range graphs {
		for _, dir := range dirs {
			var ref *Decomposition
			for _, w := range []int{1, 2, 8} {
				d, err := Partition(g, 0.1, Options{Seed: 42, Workers: w, Pool: pool, Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = d
					continue
				}
				samePartition(t, fmt.Sprintf("%s dir=%v workers=%d", name, dir, w), ref, d)
			}
		}
	}
}

// TestPartitionPoolReuseAcrossRuns reuses one pool for many consecutive
// partitions (the cmd/mpx and benchmark-harness pattern) and checks each
// run matches a fresh default-pool run: no scratch or scheduler state may
// bleed between runs.
func TestPartitionPoolReuseAcrossRuns(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	g := graph.GNM(4000, 16000, 3)
	for seed := uint64(0); seed < 5; seed++ {
		got, err := Partition(g, 0.15, Options{Seed: seed, Workers: 8, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Partition(g, 0.15, Options{Seed: seed, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		samePartition(t, fmt.Sprintf("seed=%d", seed), want, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestPartitionStaysOnCallerPool checks that every parallel pass of a
// partition — shift generation and δ_max included — runs on Options.Pool:
// with a private pool, the shared Default() pool sees no submission.
func TestPartitionStaysOnCallerPool(t *testing.T) {
	// Two or more procs so a pass on the wrong pool would submit rather
	// than run inline.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := graph.Grid2D(64, 64)
	wg := graph.RandomWeights(g, 1, 4, 3)
	pool := parallel.NewPool(2)
	defer pool.Close()
	def := parallel.Default()
	def.SetFaultHook(&parallel.FaultHook{})
	defer def.SetFaultHook(nil)
	before := def.SubmitCount()

	opts := Options{Seed: 5, Workers: 2, Pool: pool}
	if _, err := Partition(g, 0.1, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionWeightedParallel(wg, 0.1, 0, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionWeighted(wg, 0.1, opts); err != nil {
		t.Fatal(err)
	}
	if got := def.SubmitCount() - before; got != 0 {
		t.Fatalf("partitions on a private pool submitted %d jobs to the default pool", got)
	}
}
