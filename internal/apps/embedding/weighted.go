package embedding

// Weighted tree-metric embeddings: the Bartal/FRT-style recursive
// decomposition on weighted graphs, grown by the same level loop as the
// unweighted Tree. Level i decomposes the whole graph with a WEIGHTED
// diameter target Δ/2^i (β = Θ(log n / target), in units of inverse
// weighted distance, driving core.PartitionWeightedParallel); the loop
// stops once the target drops under the lightest edge weight, which is
// also the unit of the leaf length. The decomposition tree with edge
// length proportional to the level target is a dominating tree metric for
// the weighted shortest-path metric.

import (
	"context"
	"math"

	"mpx/internal/bfs"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// WeightedTree is a hierarchical decomposition tree over the vertices of a
// weighted graph.
type WeightedTree struct {
	// G is the embedded weighted graph.
	G *graph.WeightedGraph
	pieceTree
}

// BuildWeightedPoolCtx constructs the weighted hierarchy with initial
// weighted diameter target diam0 (pass 0 to use the hop pseudo-diameter
// times the maximum edge weight, a cheap upper bound) halving per level
// until it drops under the lightest edge weight, on pool (nil means
// parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS). For a fixed (wg, diam0, seed) the embedding is
// bit-identical at every worker count. ctx
// (nil means never cancelled) is polled at every level and Δ-stepping
// round boundary; a cancelled build returns (nil, ctx.Err()) with no
// partial tree.
func BuildWeightedPoolCtx(ctx context.Context, pool *parallel.Pool, wg *graph.WeightedGraph, diam0 float64, seed uint64, workers int) (*WeightedTree, error) {
	n := wg.NumVertices()
	t := &WeightedTree{G: wg}
	if n == 0 {
		return t, nil
	}
	wmin, wmax := hier.WeightRangeOnPool(pool, workers, wg)
	if math.IsInf(wmin, 1) { // edgeless: a single leaf level
		wmin, wmax = 1, 1
	}
	if diam0 <= 0 {
		diam0 = float64(bfs.PseudoDiameter(wg.Unweighted())) * wmax
		if diam0 < wmin {
			diam0 = wmin
		}
	}
	totalW := hier.TotalWeightOnPool(pool, workers, wg) // the graph is fixed across levels
	base := core.Options{Ctx: ctx, Seed: seed, Workers: workers, Pool: pool}
	err := t.grow(base, n, diam0, wmin, 80, func(level int, beta float64, opts core.Options) ([]uint32, hier.LevelStat, error) {
		d, err := core.PartitionWeightedParallel(wg, beta, 1/beta, opts)
		if err != nil {
			return nil, hier.LevelStat{}, err
		}
		cut := graph.CutEdgesPool(pool, workers, wg.Unweighted(), d.Center)
		st := hier.LevelStat{
			Level: level, N: n, M: wg.NumEdges(),
			Clusters: d.NumClusters(), CutEdges: cut, QuotientN: n,
			Weighted:    true,
			TotalWeight: totalW,
			CutWeight:   hier.CutWeightOnPool(pool, workers, wg, d.Center),
			Rounds:      d.Rounds,
		}
		st.WMaxRadius, _ = pool.MaxFloat64(workers, n, func(i int) float64 { return d.Dist[i] })
		if st.M > 0 {
			st.CutFraction = float64(cut) / float64(st.M)
		}
		if totalW > 0 {
			st.CutWeightFraction = st.CutWeight / totalW
		}
		return d.Center, st, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// MeasureDistortion samples vertex pairs within one component and compares
// tree distance to the true weighted shortest-path distance
// (bfs.DijkstraWeighted per sampled source; measurement only). The sample
// budget is bounded by attempts, so sparse or disconnected graphs — where
// most sampled pairs are unreachable — return however many pairs were
// found instead of spinning.
func (t *WeightedTree) MeasureDistortion(pairs int, seed uint64) DistortionStats {
	n := t.G.NumVertices()
	if n < 2 || pairs <= 0 {
		return DistortionStats{}
	}
	rng := xrand.NewSplitMix64(seed)
	var st DistortionStats
	var sum float64
	dominated := 0
	for attempts := 0; st.Pairs < pairs && attempts < 4*pairs; attempts += 8 {
		u := uint32(rng.Intn(n))
		dist := bfs.DijkstraWeighted(t.G, u)
		for k := 0; k < 8 && st.Pairs < pairs; k++ {
			v := uint32(rng.Intn(n))
			if v == u || math.IsInf(dist[v], 1) {
				continue
			}
			dg := dist[v]
			dt := t.Dist(u, v)
			distortion := dt / dg
			sum += distortion
			if distortion > st.MaxDistortion {
				st.MaxDistortion = distortion
			}
			if dt >= dg*(1-1e-9) {
				dominated++
			}
			st.Pairs++
		}
	}
	if st.Pairs == 0 {
		return st
	}
	st.MeanDistortion = sum / float64(st.Pairs)
	st.DominatedFrac = float64(dominated) / float64(st.Pairs)
	return st
}
