package core_test

import (
	"fmt"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// ExamplePartition shows the basic decomposition call and the two
// guarantees of Theorem 1.2.
func ExamplePartition() {
	g := graph.Grid2D(50, 50)
	d, err := core.Partition(g, 0.2, core.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid:", d.Validate() == nil)
	fmt.Println("pieces cover all vertices:", len(d.Center) == g.NumVertices())
	fmt.Println("cut fraction below 4*beta:", d.CutFraction() < 0.8)
	// Output:
	// valid: true
	// pieces cover all vertices: true
	// cut fraction below 4*beta: true
}

// ExamplePartition_deterministic shows seed-determinism across worker
// counts.
func ExamplePartition_deterministic() {
	g := graph.Grid2D(20, 20)
	a, _ := core.Partition(g, 0.1, core.Options{Seed: 3, Workers: 1})
	b, _ := core.Partition(g, 0.1, core.Options{Seed: 3, Workers: 8})
	same := true
	for v := range a.Center {
		if a.Center[v] != b.Center[v] {
			same = false
		}
	}
	fmt.Println("identical at 1 and 8 workers:", same)
	// Output:
	// identical at 1 and 8 workers: true
}

// ExampleBallGrowingCtx runs the classical sequential baseline.
func ExampleBallGrowingCtx() {
	g := graph.Cycle(100)
	d, err := core.BallGrowingCtx(nil, g, 0.2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters cover cycle:", len(d.Center) == 100)
	fmt.Println("at least one piece:", d.NumClusters() >= 1)
	// Output:
	// clusters cover cycle: true
	// at least one piece: true
}

// ExamplePartitionWeighted decomposes a weighted graph (paper Section 6).
func ExamplePartitionWeighted() {
	wg := graph.RandomWeights(graph.Grid2D(15, 15), 1, 5, 2)
	d, err := core.PartitionWeighted(wg, 0.1, core.Options{Seed: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid:", d.Validate() == nil)
	fmt.Println("radius bounded by max shift:", d.MaxRadius() <= d.DeltaMax)
	// Output:
	// valid: true
	// radius bounded by max shift: true
}

// ExampleGenerateShifts draws the exponential shifts in isolation
// (Lemma 4.2 studies their maximum).
func ExampleGenerateShifts() {
	shifts := core.GenerateShifts(5, 0.5, core.Options{Seed: 42, ShiftSource: core.ShiftExponential})
	allPositive := true
	for _, s := range shifts {
		if s < 0 {
			allPositive = false
		}
	}
	fmt.Println("5 shifts, all non-negative:", len(shifts) == 5 && allPositive)
	// Output:
	// 5 shifts, all non-negative: true
}
