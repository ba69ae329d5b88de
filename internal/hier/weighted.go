package hier

import (
	"math"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// This file holds the weighted helpers of the hierarchy engine. Weighted
// hierarchies run the same level loop and update walk as unweighted ones
// (update.go) — the layer that runs AKPW end to end on weighted graphs. A
// weighted level differs in three places only: its partition
// (core.PartitionWeightedParallel), its rebuild kernel
// (graph.ContractWeightedClustersPool, graph.CutWeightedSubgraphPool) and
// its weighted LevelStat fields. Contraction SUMS the weights of parallel
// cut edges into the quotient arc, so total edge weight is conserved level
// by level, and the per-level β schedule (Config.WBetaAt) realizes the
// AKPW weight-class progression: β shrinks geometrically so each level
// clusters at the next weight scale, and each level's Δ-stepping bucket
// width is 1/β_l.
//
// Determinism composes exactly as in the unweighted engine: the weighted
// partition is bit-identical across workers (docs/determinism.md), the
// weighted contraction is bit-identical to its serial reference including
// every summed weight bit (stable sort + fixed run-sum order), and the
// annotation/classification kernels are shared with the unweighted engine
// verbatim — they read only the CSR structure and the center labels,
// never the weights or the schedule.

// Center returns the per-vertex center assignment of this level's
// decomposition — WD.Center in weighted runs, D.Center otherwise.
func (lv *Level) Center() []uint32 {
	if lv.WD != nil {
		return lv.WD.Center
	}
	return lv.D.Center
}

// TotalWeightOnPool sums the undirected edge weights of wg as a pooled
// block reduction (each arc contributes half its weight twice). The last
// float bits depend on the block layout, i.e. on the worker count — use it
// for stats, never for determinism-gated output. Shared by the engine's
// per-level stats and the weighted applications.
func TotalWeightOnPool(pool *parallel.Pool, workers int, wg *graph.WeightedGraph) float64 {
	return pool.ReduceFloat64(workers, wg.NumVertices(), func(v int) float64 {
		_, ws := wg.Neighbors(uint32(v))
		var s float64
		for _, x := range ws {
			s += x
		}
		return s
	}) / 2
}

// WeightRangeOnPool returns the minimum and maximum edge weight of wg as
// pooled per-vertex reductions (+Inf / -Inf on an edgeless graph). Exact:
// min/max are order-independent.
func WeightRangeOnPool(pool *parallel.Pool, workers int, wg *graph.WeightedGraph) (wmin, wmax float64) {
	n := wg.NumVertices()
	wmax, _ = pool.MaxFloat64(workers, n, func(v int) float64 {
		_, ws := wg.Neighbors(uint32(v))
		m := math.Inf(-1)
		for _, w := range ws {
			if w > m {
				m = w
			}
		}
		return m
	})
	negMin, _ := pool.MaxFloat64(workers, n, func(v int) float64 {
		_, ws := wg.Neighbors(uint32(v))
		m := math.Inf(-1)
		for _, w := range ws {
			if -w > m {
				m = -w
			}
		}
		return m
	})
	return -negMin, wmax
}

// CutWeightOnPool sums the weight of the edges of wg whose endpoints carry
// different labels, reducing on the given pool — the weighted analogue of
// graph.CutEdgesPool, for the weighted embedding's level stats. Stats
// only: block-reduction float order depends on the worker count.
func CutWeightOnPool(pool *parallel.Pool, workers int, wg *graph.WeightedGraph, center []uint32) float64 {
	return pool.ReduceFloat64(workers, wg.NumVertices(), func(v int) float64 {
		nbrs, ws := wg.Neighbors(uint32(v))
		cv := center[v]
		var s float64
		for i, u := range nbrs {
			if center[u] != cv {
				s += ws[i]
			}
		}
		return s
	}) / 2
}
