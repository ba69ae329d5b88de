// Package mpx_bench is the root benchmark harness: one benchmark per
// experiment id (the paper's Figure 1 plus every proved guarantee turned
// into a measured table). E1–E18 mirror the runners registered in
// internal/expt (expt.IDs lists them); E19 onward exist only here. Each
// benchmark exercises the computational core of its experiment and reports
// the headline quality metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the performance side of the
// experiment tables.
package mpx_bench

import (
	"fmt"
	"runtime"
	"testing"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/embedding"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/apps/separator"
	"mpx/internal/apps/solver"
	"mpx/internal/apps/spanner"
	"mpx/internal/core"
	"mpx/internal/expt"
	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// benchGrid is shared by several benchmarks; built once.
var benchGrid = graph.Grid2D(250, 250)

// benchPool is the single persistent worker pool every benchmark run
// executes on — constructed once per process, exactly as cmd/mpx does.
var benchPool = parallel.NewPool(0)

// BenchmarkE1Figure1 decomposes the Figure 1 grid (scaled to 250x250) at
// each of the paper's six β values.
func BenchmarkE1Figure1(b *testing.B) {
	for _, beta := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			var clusters int
			for i := 0; i < b.N; i++ {
				d, err := core.Partition(benchGrid, beta, core.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				clusters = d.NumClusters()
			}
			b.ReportMetric(float64(clusters), "clusters")
		})
	}
}

// BenchmarkE2Diameter measures partitioning across the experiment families
// and reports the radius/(ln n / β) ratio.
func BenchmarkE2Diameter(b *testing.B) {
	families := map[string]*graph.Graph{
		"grid":      graph.Grid2D(200, 200),
		"gnm":       graph.GNM(40000, 160000, 1),
		"rmat":      graph.RMAT(15, 160000, 2),
		"hypercube": graph.Hypercube(15),
	}
	for name, g := range families {
		b.Run(name, func(b *testing.B) {
			var maxRad int32
			for i := 0; i < b.N; i++ {
				d, err := core.Partition(g, 0.1, core.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				maxRad = d.MaxRadius()
			}
			b.ReportMetric(float64(maxRad), "maxRadius")
		})
	}
}

// BenchmarkE3CutFraction reports the measured cut/β ratio per β.
func BenchmarkE3CutFraction(b *testing.B) {
	for _, beta := range []float64{0.02, 0.1, 0.5} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				d, err := core.Partition(benchGrid, beta, core.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				frac = d.CutFraction()
			}
			b.ReportMetric(frac/beta, "cut/beta")
		})
	}
}

// BenchmarkE4MaxShift benchmarks the shift-generation substrate (Lemma 4.2
// studies these values).
func BenchmarkE4MaxShift(b *testing.B) {
	const n = 1 << 17
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shifts := core.GenerateShifts(n, 0.1, core.Options{Seed: uint64(i), ShiftSource: core.ShiftExponential})
		_ = shifts[n-1]
	}
}

// BenchmarkE5DepthWork reports rounds (depth proxy) and relaxed/m (work
// proxy) across β.
func BenchmarkE5DepthWork(b *testing.B) {
	for _, beta := range []float64{0.05, 0.2} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			var rounds int
			var workRatio float64
			for i := 0; i < b.N; i++ {
				d, err := core.Partition(benchGrid, beta, core.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = d.Rounds
				workRatio = float64(d.Relaxed) / float64(benchGrid.NumEdges())
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(workRatio, "relaxed/m")
		})
	}
}

// BenchmarkE6Workers sweeps the worker count over the high-diameter grid
// and the low-diameter gnm family (single-core hosts measure
// synchronization overhead; multi-core hosts measure speedup). All runs
// share benchPool, so the sweep isolates the logical worker count from
// pool construction. The gnm-smallbeta case runs β=0.01, where the
// shift-plan radix sort dominates the serial fraction — it is the workload
// the pool-parallel tie-break radix passes are gated on.
func BenchmarkE6Workers(b *testing.B) {
	gnm := graph.GNM(40000, 160000, 1)
	families := []struct {
		name string
		g    *graph.Graph
		beta float64
	}{
		{"grid", benchGrid, 0.1},
		{"gnm", gnm, 0.1},
		{"gnm-smallbeta", gnm, 0.01},
	}
	for _, fam := range families {
		for _, w := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Partition(fam.g, fam.beta, core.Options{Seed: 1, Workers: w, Pool: benchPool}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE7Baselines compares the three decomposition algorithms on one
// workload.
func BenchmarkE7Baselines(b *testing.B) {
	g := graph.GNM(50000, 200000, 3)
	b.Run("mpx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Partition(g, 0.1, core.Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpx-sequential-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PartitionSequential(g, 0.1, core.Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ballgrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BallGrowingCtx(nil, g, 0.1, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PartitionIterativeCtx(nil, g, 0.1, uint64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8TieBreak compares the Section 5 tie-breaking variants.
func BenchmarkE8TieBreak(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"fractional", core.Options{TieBreak: core.TieFractional}},
		{"permutation", core.Options{TieBreak: core.TiePermutation}},
		{"quantile-shifts", core.Options{ShiftSource: core.ShiftQuantile}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := v.opts
				opts.Seed = uint64(i)
				if _, err := core.Partition(benchGrid, 0.1, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Weighted benchmarks the weighted shifted-Dijkstra extension.
func BenchmarkE9Weighted(b *testing.B) {
	wg := graph.RandomWeights(graph.Grid2D(150, 150), 1, 10, 5)
	var cut float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.PartitionWeighted(wg, 0.1, core.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		cut = d.CutWeightFraction()
	}
	b.ReportMetric(cut, "cutWeightFrac")
}

// BenchmarkE10Blocks benchmarks the iterated block decomposition.
func BenchmarkE10Blocks(b *testing.B) {
	g := graph.Torus2D(120, 120)
	var nblocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, err := blocks.DecomposePoolCtx(nil, nil, g, 0.5, uint64(i), 0, 0, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		nblocks = bd.NumBlocks()
	}
	b.ReportMetric(float64(nblocks), "blocks")
}

// BenchmarkE11Spanner benchmarks spanner construction (without the
// stretch-measurement BFS sampling).
func BenchmarkE11Spanner(b *testing.B) {
	g0 := graph.RoadNetwork(150, 150, 0.85, 80, 7)
	g, _ := graph.LargestComponent(g0)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := spanner.Build(g, 0.1, core.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		size = s.Size()
	}
	b.ReportMetric(float64(size)/float64(g.NumEdges()), "keptFrac")
}

// BenchmarkE12LowStretch benchmarks the AKPW-style tree construction plus
// exact stretch evaluation.
func BenchmarkE12LowStretch(b *testing.B) {
	g := graph.Grid2D(100, 100)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, uint64(i), 0, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		mean = tr.Stretch().Mean
	}
	b.ReportMetric(mean, "meanStretch")
}

// BenchmarkE19Direction sweeps the Partition traversal modes — push-only
// against the Beamer-switching hybrid (and pull-only for reference) — on
// the high-diameter grid (where the hybrid must not lose) and the
// low-diameter gnm/rmat/hypercube families (where dense pull rounds win).
func BenchmarkE19Direction(b *testing.B) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(250, 250)},
		{"gnm", graph.GNM(60000, 240000, 1)},
		{"rmat", graph.RMAT(16, 240000, 2)},
		{"hypercube", graph.Hypercube(16)},
	}
	modes := []struct {
		name string
		dir  core.Direction
	}{
		{"push", core.DirectionForcePush},
		{"hybrid", core.DirectionAuto},
		{"pull", core.DirectionForcePull},
	}
	for _, fam := range families {
		for _, mode := range modes {
			b.Run(fam.name+"/"+mode.name, func(b *testing.B) {
				var relaxed int64
				for i := 0; i < b.N; i++ {
					d, err := core.Partition(fam.g, 0.1,
						core.Options{Seed: 1, Direction: mode.dir})
					if err != nil {
						b.Fatal(err)
					}
					relaxed = d.Relaxed
				}
				b.ReportMetric(float64(relaxed)/float64(fam.g.NumEdges()), "relaxed/m")
			})
		}
	}
}

// roundOverhead measures allocations per partition round across whole
// partition calls: run performs one call and returns its round count. It
// warms the pool and the allocator size classes with one call, then
// reports allocs/round, B/round and rounds/call over b.N calls.
func roundOverhead(b *testing.B, run func() int) (allocsPerRound, bytesPerRound float64) {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		totalRounds += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocsPerRound = float64(after.Mallocs-before.Mallocs) / float64(totalRounds)
	bytesPerRound = float64(after.TotalAlloc-before.TotalAlloc) / float64(totalRounds)
	b.ReportMetric(allocsPerRound, "allocs/round")
	b.ReportMetric(bytesPerRound, "B/round")
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
	return allocsPerRound, bytesPerRound
}

// BenchmarkE20RoundOverhead is the allocation-regression gate on
// core.Partition's round loop, measured across whole Partition calls. A
// call allocates its O(n) result, shift plan and claim arrays once; the
// per-round remainder is the closures each round submits to the pool plus
// that amortized set-up. The 250×250 grid at β=0.02 runs 606 rounds, so
// the set-up averages out to ~10 KB per round, under forced push and under
// forced pull; gnm at β=0.1 under auto switches push→pull→push (4 of its
// 104 rounds pull), so it also runs both switches and the pull-cohort
// build, with the set-up spread over fewer rounds. An O(n) buffer
// allocated per round (the regression this guards against — e.g. the
// frontier or the pull cohort losing its double buffer) costs ~250 KB per
// round on the grid and ~240 KB on gnm, over 16× and 3× their bytes
// gates. The gates are hard ceilings set from measurement (2-vCPU x86-64,
// Workers 8: 5.8/8.4/11.0 allocs and 10.4/13.2/63 KB per round) with
// modest headroom.
func BenchmarkE20RoundOverhead(b *testing.B) {
	cases := []struct {
		name      string
		g         *graph.Graph
		beta      float64
		dir       core.Direction
		maxAllocs float64
		maxBytes  float64
	}{
		{"grid/push", benchGrid, 0.02, core.DirectionForcePush, 8, 16 << 10},
		{"grid/pull", benchGrid, 0.02, core.DirectionForcePull, 12, 20 << 10},
		{"gnm/auto", graph.GNM(60000, 240000, 1), 0.1, core.DirectionAuto, 16, 96 << 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := core.Options{Seed: 1, Workers: 8, Pool: benchPool, Direction: c.dir}
			allocs, bytes := roundOverhead(b, func() int {
				d, err := core.Partition(c.g, c.beta, opts)
				if err != nil {
					b.Fatal(err)
				}
				return d.Rounds
			})
			if allocs > c.maxAllocs {
				b.Fatalf("partition rounds allocate %.1f objects/round (gate %g): per-round scratch is leaking",
					allocs, c.maxAllocs)
			}
			if bytes > c.maxBytes {
				b.Fatalf("partition rounds allocate %.0f B/round (gate %g): an O(n) per-round buffer is back",
					bytes, c.maxBytes)
			}
		})
	}
}

// Weighted-round gates for E20's weighted variant. A weighted partition
// call unavoidably allocates its O(n) result and setup arrays once, which
// amortize over its hundreds of buckets/rounds; the per-round remainder is
// the submitted closures plus that amortized setup. An O(n) buffer
// allocated per bucket round (the regression this guards against — e.g.
// the dedup stamp array losing its reuse, which measured 82 KB/round on
// this workload) blows the bytes gate several times over.
const (
	maxWeightedAllocsPerRound = 12
	maxWeightedBytesPerRound  = 24576
)

// BenchmarkE20WeightedRoundOverhead is the weighted companion of E20: it
// measures allocations per Δ-stepping bucket round across whole
// PartitionWeightedParallel calls and fails the run when a per-round O(n)
// allocation sneaks back into the relaxation machinery.
func BenchmarkE20WeightedRoundOverhead(b *testing.B) {
	wg := graph.RandomWeights(graph.Grid2D(120, 120), 1, 10, 3)
	opts := core.Options{Seed: 1, Workers: 8, Pool: benchPool}
	allocs, bytes := roundOverhead(b, func() int {
		d, err := core.PartitionWeightedParallel(wg, 0.1, 0, opts)
		if err != nil {
			b.Fatal(err)
		}
		return d.Rounds
	})
	if allocs > maxWeightedAllocsPerRound {
		b.Fatalf("weighted rounds allocate %.1f objects/round (gate %d): per-round scratch is leaking",
			allocs, maxWeightedAllocsPerRound)
	}
	if bytes > maxWeightedBytesPerRound {
		b.Fatalf("weighted rounds allocate %.0f B/round (gate %d): an O(n) per-round buffer is back",
			bytes, maxWeightedBytesPerRound)
	}
}

// BenchmarkE22Apps sweeps the hierarchy applications — the AKPW low-stretch
// tree and the Linial–Saks block decomposition, both running on the
// internal/hier engine — over the grid and gnm families at workers
// 1/2/4/8, all on the shared process pool.
func BenchmarkE22Apps(b *testing.B) {
	families := []struct {
		name string
		g    *graph.Graph
		beta float64
	}{
		{"grid", graph.Grid2D(160, 160), 0.2},
		{"gnm", graph.GNM(30000, 120000, 1), 0.3},
	}
	for _, fam := range families {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("lowstretch/%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var levels int
				for i := 0; i < b.N; i++ {
					tr, err := lowstretch.BuildPoolCtx(nil, benchPool, fam.g, fam.beta, 1, w, core.DirectionAuto)
					if err != nil {
						b.Fatal(err)
					}
					levels = tr.Levels
				}
				b.ReportMetric(float64(levels), "levels")
			})
			b.Run(fmt.Sprintf("blocks/%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var nblocks int
				for i := 0; i < b.N; i++ {
					bd, err := blocks.DecomposePoolCtx(nil, benchPool, fam.g, 0.5, 1, 0, w, core.DirectionAuto)
					if err != nil {
						b.Fatal(err)
					}
					nblocks = bd.NumBlocks()
				}
				b.ReportMetric(float64(nblocks), "blocks")
			})
		}
	}
}

// maxHierAllocsPerLevel is the allocation-regression gate for E22: one
// steady-state hierarchy level allocates only its results (the quotient
// CSR, the quotient map, the annotation table, Partition's output arrays)
// plus submitted pool closures and Partition's start-time buckets — a
// bounded count, independent of m. Measured baseline is ~390 allocs/level
// on the gnm workload; the gate is a hard ceiling with modest headroom.
// The retired map-based contraction paths (lowstretch's per-level
// map[key]annEdge rebuild, ContractClusters' map[uint32]uint32 +
// FromEdgesDedup) allocated O(m) objects per level and blow this gate by
// two orders of magnitude.
const maxHierAllocsPerLevel = 600

// BenchmarkE22HierarchyAllocGate measures allocations per hierarchy level
// across whole low-stretch-tree builds (the deepest engine user: contract
// mode with edge annotations) and fails the run if the per-level count
// regresses toward O(m) map churn. It measures the incremental build mpxd
// serves (lowstretch.BuildIncrementalPoolCtx: retained hierarchy,
// per-level tree-edge segments, LCA index).
func BenchmarkE22HierarchyAllocGate(b *testing.B) {
	g := graph.GNM(30000, 120000, 1)
	run := func() int {
		inc, err := lowstretch.BuildIncrementalPoolCtx(nil, benchPool, g, 0.3, 1, 8, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		return inc.Tree().Levels
	}
	run() // warm the pool and allocator size classes before measuring
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	totalLevels := 0
	for i := 0; i < b.N; i++ {
		totalLevels += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocsPerLevel := float64(after.Mallocs-before.Mallocs) / float64(totalLevels)
	b.ReportMetric(allocsPerLevel, "allocs/level")
	b.ReportMetric(float64(totalLevels)/float64(b.N), "levels")
	if allocsPerLevel > maxHierAllocsPerLevel {
		b.Fatalf("hierarchy levels allocate %.0f objects/level (gate %d): an O(m) per-level rebuild is back",
			allocsPerLevel, maxHierAllocsPerLevel)
	}
}

// maxWeightedHierAllocsPerLevel is the allocation-regression gate for the
// WEIGHTED hierarchy: one steady-state weighted level allocates its
// results (the weighted quotient CSR including the summed-weight array,
// the quotient map, the annotation table, the weighted partition's output
// and Δ-stepping buckets) plus submitted pool closures — a bounded count,
// independent of m. Measured baseline is ~160 allocs/level on the gnm
// workload; the gate is a hard ceiling with modest headroom. A per-level
// O(m) rebuild (e.g. a map-based weight merge in the contraction) blows it
// by orders of magnitude.
const maxWeightedHierAllocsPerLevel = 400

// BenchmarkE22WeightedHierarchyAllocGate is the weighted twin of the E22
// gate: allocations per hierarchy level across whole AKPW weighted
// low-stretch builds (weighted engine, contract mode, edge annotations,
// weight-class schedules), failing the run on regression toward O(m)
// per-level churn.
func BenchmarkE22WeightedHierarchyAllocGate(b *testing.B) {
	g := graph.GNM(30000, 120000, 1)
	wg := graph.RandomWeights(g, 1, 8, 2)
	run := func() int {
		tr, err := lowstretch.BuildWeightedPoolCtx(nil, benchPool, wg, 0.3, 1, 8, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		return tr.Levels
	}
	run() // warm the pool and allocator size classes before measuring
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	totalLevels := 0
	for i := 0; i < b.N; i++ {
		totalLevels += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocsPerLevel := float64(after.Mallocs-before.Mallocs) / float64(totalLevels)
	b.ReportMetric(allocsPerLevel, "allocs/level")
	b.ReportMetric(float64(totalLevels)/float64(b.N), "levels")
	if allocsPerLevel > maxWeightedHierAllocsPerLevel {
		b.Fatalf("weighted hierarchy levels allocate %.0f objects/level (gate %d): an O(m) per-level rebuild is back",
			allocsPerLevel, maxWeightedHierAllocsPerLevel)
	}
}

// BenchmarkE22WeightedApps sweeps the weighted hierarchy applications —
// the true AKPW tree and the weighted block decomposition — over the
// weighted grid and gnm families at workers 1/2/4/8.
func BenchmarkE22WeightedApps(b *testing.B) {
	families := []struct {
		name string
		wg   *graph.WeightedGraph
		beta float64
	}{
		{"grid", graph.RandomWeights(graph.Grid2D(160, 160), 1, 8, 3), 0.2},
		{"gnm", graph.RandomWeights(graph.GNM(30000, 120000, 1), 1, 8, 3), 0.3},
	}
	for _, fam := range families {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("lowstretch/%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var levels int
				for i := 0; i < b.N; i++ {
					tr, err := lowstretch.BuildWeightedPoolCtx(nil, benchPool, fam.wg, fam.beta, 1, w, core.DirectionAuto)
					if err != nil {
						b.Fatal(err)
					}
					levels = tr.Levels
				}
				b.ReportMetric(float64(levels), "levels")
			})
			b.Run(fmt.Sprintf("blocks/%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var nblocks int
				for i := 0; i < b.N; i++ {
					bd, err := blocks.DecomposeWeightedPoolCtx(nil, benchPool, fam.wg, 0.5, 1, 0, w)
					if err != nil {
						b.Fatal(err)
					}
					nblocks = bd.NumBlocks()
				}
				b.ReportMetric(float64(nblocks), "blocks")
			})
		}
	}
}

// BenchmarkExperimentHarness runs the full experiment suite end to end at
// test scale (integration smoke at benchmark cadence).
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := expt.Config{Scale: 0.01, Seed: 1, Trials: 1}
	for i := 0; i < b.N; i++ {
		for _, id := range expt.IDs() {
			if _, err := expt.Run(id, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE13Lemma44 benchmarks one Monte-Carlo round of the Lemma 4.4
// event probability (the paper's key partition lemma).
func BenchmarkE13Lemma44(b *testing.B) {
	d := make([]float64, 1000)
	for i := 0; i < b.N; i++ {
		_ = core.Lemma44Probability(d, 0.1, 1, 100, uint64(i))
	}
}

// BenchmarkE14Solver benchmarks the SDD-solver pipeline: low-stretch tree
// construction plus one tree-preconditioned CG solve.
func BenchmarkE14Solver(b *testing.B) {
	g := graph.Grid2D(60, 60)
	l := solver.NewLaplacian(g)
	rhs := make([]float64, g.NumVertices())
	var sum float64
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
		sum += rhs[i]
	}
	for i := range rhs {
		rhs[i] -= sum / float64(len(rhs))
	}
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, uint64(i), 0, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		ts, err := solver.NewTreeSolver(g.NumVertices(), tr.Edges)
		if err != nil {
			b.Fatal(err)
		}
		_, res := solver.PCG(l, ts, rhs, 1e-8, 10000)
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "pcgIters")
}

// BenchmarkE15WeightedParallel benchmarks the delta-stepping weighted
// partition (the Section 6 parallel-depth exploration).
func BenchmarkE15WeightedParallel(b *testing.B) {
	wg := graph.RandomWeights(graph.Grid2D(120, 120), 1, 10, 3)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.PartitionWeightedParallel(wg, 0.1, 0, core.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = d.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE16Embedding benchmarks the hierarchical tree-metric embedding.
func BenchmarkE16Embedding(b *testing.B) {
	g := graph.Grid2D(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embedding.BuildPoolCtx(nil, nil, g, 0, uint64(i), 0, core.DirectionAuto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17Separator benchmarks balanced separator extraction.
func BenchmarkE17Separator(b *testing.B) {
	g := graph.Grid2D(100, 100)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := separator.FindPoolCtx(nil, nil, g, 0, 2.0/3, uint64(i), 0, core.DirectionAuto)
		if err != nil {
			b.Fatal(err)
		}
		size = len(r.Separator)
	}
	b.ReportMetric(float64(size), "sepSize")
}

// BenchmarkE18Connectivity benchmarks LDD-contraction connectivity against
// the sequential BFS labeling.
func BenchmarkE18Connectivity(b *testing.B) {
	g := graph.RMAT(15, 200000, 5)
	b.Run("ldd-contraction", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			r, err := connectivity.ComponentsPoolCtx(nil, benchPool, g, 0.4, uint64(i), 0, core.DirectionAuto)
			if err != nil {
				b.Fatal(err)
			}
			rounds = r.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("sequential-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = graph.ConnectedComponents(g)
		}
	})
}
