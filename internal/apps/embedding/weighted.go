package embedding

// Weighted tree-metric embeddings: the Bartal/FRT-style recursive
// decomposition on weighted graphs. Level i decomposes the whole graph
// with a WEIGHTED diameter target Δ/2^i (β = Θ(log n / target), in units
// of inverse weighted distance, driving core.PartitionWeightedParallel),
// refines against the previous level with the same sort-based
// hier.RefineAssignment kernel, and the decomposition tree with edge
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
	// Levels is the depth of the hierarchy.
	Levels int
	// Stats summarizes each decomposition level, including the weighted
	// per-level fields.
	Stats []hier.LevelStat
	// assignment[l][v] is the piece id containing v at level l; level 0 is
	// the coarsest.
	assignment [][]uint32
	// length[l] is the tree edge length between level l and l+1 nodes.
	length []float64
}

// BuildWeightedPoolCtx constructs the weighted hierarchy with initial
// weighted diameter target diam0 (pass 0 to use the hop pseudo-diameter
// times the maximum edge weight, a cheap upper bound) halving per level
// until it drops under the lightest edge weight, on pool (nil means
// parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS) and traversal direction dir. For a fixed (wg, diam0, seed)
// the embedding is bit-identical at every worker count and direction. ctx
// (nil means never cancelled) is polled at every level and Δ-stepping
// round boundary; a cancelled build returns (nil, ctx.Err()) with no
// partial tree.
func BuildWeightedPoolCtx(ctx context.Context, pool *parallel.Pool, wg *graph.WeightedGraph, diam0 float64, seed uint64, workers int, dir core.Direction) (*WeightedTree, error) {
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
	logn := math.Log(float64(n) + 1)
	totalW := hier.TotalWeightOnPool(pool, workers, wg) // the graph is fixed across levels

	refineScratch := &hier.RefineScratch{}
	target := diam0
	level := 0
	for target >= wmin {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		beta := math.Min(0.9, 2*logn/target)
		d, err := core.PartitionWeightedParallel(wg, beta, 1/beta, core.Options{
			Ctx:       ctx,
			Seed:      xrand.Mix(seed, uint64(level)),
			Workers:   workers,
			Pool:      pool,
			Direction: dir,
		})
		if err != nil {
			return nil, err
		}
		assign := make([]uint32, n)
		if level == 0 {
			pool.ForRange(workers, n, func(lo, hi int) {
				copy(assign[lo:hi], d.Center[lo:hi])
			})
		} else {
			hier.RefineAssignment(pool, workers, t.assignment[level-1], d.Center, assign, refineScratch)
		}
		cut := hier.CutEdgesOnPool(pool, workers, wg.Unweighted(), d.Center)
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
		t.Stats = append(t.Stats, st)
		t.assignment = append(t.assignment, assign)
		t.length = append(t.length, target)
		level++
		target /= 2
		if level > 80 {
			break
		}
	}
	// Final level: every vertex its own leaf. The last Partition level's
	// pieces still have weighted radius up to ~ln n / 0.9 · (scale wmin),
	// so the leaf edge carries length (ln n + 1)·wmin to keep the tree
	// metric dominating for pairs that only separate here.
	leaf := make([]uint32, n)
	for v := range leaf {
		leaf[v] = uint32(v)
	}
	t.assignment = append(t.assignment, leaf)
	t.length = append(t.length, (logn+1)*wmin)
	t.Levels = len(t.assignment)
	return t, nil
}

// Dist returns the tree-metric distance between u and v: twice the sum of
// level lengths below their lowest common level of agreement.
func (t *WeightedTree) Dist(u, v uint32) float64 {
	if u == v {
		return 0
	}
	sep := -1
	for l := 0; l < t.Levels; l++ {
		if t.assignment[l][u] != t.assignment[l][v] {
			sep = l
			break
		}
	}
	if sep == -1 {
		return 0
	}
	var sum float64
	for l := sep; l < t.Levels; l++ {
		sum += t.length[l]
	}
	return 2 * sum
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
