package core

import (
	"fmt"
	"math"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

func BenchmarkPartitionGridSizes(b *testing.B) {
	for _, side := range []int{100, 200, 400} {
		g := graph.Grid2D(side, side)
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			b.SetBytes(g.NumArcs() * 4)
			for i := 0; i < b.N; i++ {
				if _, err := Partition(g, 0.1, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionBetaSweep(b *testing.B) {
	g := graph.Grid2D(200, 200)
	for _, beta := range []float64{0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Partition(g, beta, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShiftPlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = newShiftPlan(1<<17, 0.1, Options{Seed: uint64(i)}, everyVertex)
	}
}

// BenchmarkSortByFrac isolates the shift-plan tie-break sort (the dominant
// serial fraction of small-β partitions after PR 2): workers=1 runs the
// serial skip-pass radix sort, higher counts the pool-parallel
// per-worker-histogram passes. Ranks are identical at every count (the
// property tests pin that); this measures the wall-clock side on
// multi-core hosts.
func BenchmarkSortByFrac(b *testing.B) {
	const n = 1 << 19
	pool := parallel.NewPool(0)
	defer pool.Close()
	base := make([]uint64, n)
	for i := range base {
		base[i] = math.Float64bits(xrand.Uniform01(7, uint64(i)))
	}
	fracBits := make([]uint64, n)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(fracBits, base)
				fracOrder(pool, w, fracBits)
			}
		})
	}
}

func BenchmarkValidate(b *testing.B) {
	g := graph.Grid2D(200, 200)
	d, err := Partition(g, 0.1, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := d.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCutEdges(b *testing.B) {
	g := graph.Grid2D(300, 300)
	d, err := Partition(g, 0.1, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = d.CutEdges()
	}
	_ = sink
}

func BenchmarkBallGrowingGrid(b *testing.B) {
	g := graph.Grid2D(200, 200)
	for i := 0; i < b.N; i++ {
		if _, err := BallGrowingCtx(nil, g, 0.1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionSequentialRef(b *testing.B) {
	g := graph.Grid2D(200, 200)
	for i := 0; i < b.N; i++ {
		if _, err := PartitionSequential(g, 0.1, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionWeightedGrid(b *testing.B) {
	wg := graph.RandomWeights(graph.Grid2D(150, 150), 1, 10, 1)
	for i := 0; i < b.N; i++ {
		if _, err := PartitionWeighted(wg, 0.1, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
