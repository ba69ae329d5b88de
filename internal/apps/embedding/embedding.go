// Package embedding builds hierarchical tree-metric embeddings of
// unweighted graphs by recursive low-diameter decomposition — the Bartal /
// FRT style application the paper's Section 2 relates its partition scheme
// to ("similar approaches have been used ... for the Bartal trees"; the
// random permutation view "is perhaps closer to the use of random
// permutations in the optimal tree-metric embedding algorithm [16]").
//
// Level i decomposes every current piece with a diameter target Δ/2^i
// (choosing β = Θ(log n / target)); the decomposition tree with edge length
// proportional to the level target is a dominating tree metric whose
// expected distortion the E16 experiment measures. With strong-diameter
// pieces from Partition the construction stays nearly-linear work — the
// property the paper emphasizes against quadratic weak-diameter schemes.
package embedding

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

// Tree is a hierarchical decomposition tree over the vertices of a graph.
type Tree struct {
	// G is the embedded graph.
	G *graph.Graph
	// Levels is the depth of the hierarchy.
	Levels int
	// Stats summarizes each decomposition level (sizes, clusters, cut).
	Stats []hier.LevelStat
	// parent[l][v] is the piece id (center, in level-l numbering of the
	// original ids) containing v at level l; level 0 is the coarsest.
	assignment [][]uint32
	// length[l] is the tree edge length between level l and l+1 nodes.
	length []float64
}

// BuildPoolCtx constructs the hierarchy with initial diameter target diam0
// (pass 0 to use the graph's pseudo-diameter) halving per level, on pool
// (nil means parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS) and traversal direction dir: every level's Partition runs on
// the pool, and the per-level piece refinement is the
// hier.RefineAssignment sort-based kernel instead of a composite-key map.
// For a fixed (g, diam0, seed) the embedding is bit-identical at every
// worker count and direction. ctx (nil means never cancelled) is polled at
// every level and partition-round boundary; a cancelled build returns
// (nil, ctx.Err()) with no partial tree.
func BuildPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, diam0 float64, seed uint64, workers int, dir core.Direction) (*Tree, error) {
	t, _, err := buildTree(ctx, pool, g, diam0, seed, workers, dir, false)
	return t, err
}

// ctxErr polls ctx at a level boundary; a nil ctx is never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// levelPartition is what the incremental embedding retains per partition
// level: the decomposition (whose shift plan powers the O(batch) fixpoint
// check) and the β the level was built with.
type levelPartition struct {
	d    *core.Decomposition
	beta float64
}

// resolveDiam0 applies BuildPoolCtx's diameter default: the graph's
// pseudo-diameter (the largest over its components, so the coarsest level
// spans every component), floored at 1.
func resolveDiam0(g *graph.Graph, diam0 float64) float64 {
	if diam0 <= 0 {
		diam0 = float64(bfs.PseudoDiameter(g))
		if diam0 < 1 {
			diam0 = 1
		}
	}
	return diam0
}

// buildTree is the shared level loop behind BuildPoolCtx and
// BuildIncrementalPoolCtx; retain additionally returns the per-level
// decompositions for incremental maintenance.
func buildTree(ctx context.Context, pool *parallel.Pool, g *graph.Graph, diam0 float64, seed uint64, workers int, dir core.Direction, retain bool) (*Tree, []levelPartition, error) {
	n := g.NumVertices()
	t := &Tree{G: g}
	if n == 0 {
		return t, nil, nil
	}
	diam0 = resolveDiam0(g, diam0)
	logn := math.Log(float64(n) + 1)

	// current[v] = piece id of v at the previous level; coarsest level is a
	// single pseudo-piece per connected component, realized by decomposing
	// the whole graph with the full diameter target.
	var parts []levelPartition
	refineScratch := &hier.RefineScratch{}
	target := diam0
	level := 0
	for target >= 1 {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, err
		}
		beta := math.Min(0.9, 2*logn/target)
		d, err := core.Partition(g, beta, core.Options{
			Ctx:       ctx,
			Seed:      xrand.Mix(seed, uint64(level)),
			Workers:   workers,
			Pool:      pool,
			Direction: dir,
		})
		if err != nil {
			return nil, nil, err
		}
		// Refine against the previous level: a piece may not span two
		// parent pieces, so the effective piece id is the composite key
		// (parent piece, new center) canonicalized to its smallest member
		// vertex so ids stay stable.
		assign := make([]uint32, n)
		if level == 0 {
			pool.ForRange(workers, n, func(lo, hi int) {
				copy(assign[lo:hi], d.Center[lo:hi])
			})
		} else {
			hier.RefineAssignment(pool, workers, t.assignment[level-1], d.Center, assign, refineScratch)
		}
		cut := hier.CutEdgesOnPool(pool, workers, g, d.Center)
		st := hier.LevelStat{
			Level: level, N: n, M: g.NumEdges(),
			Clusters: d.NumClusters(), CutEdges: cut, QuotientN: n,
		}
		if st.M > 0 {
			st.CutFraction = float64(cut) / float64(st.M)
		}
		t.Stats = append(t.Stats, st)
		t.assignment = append(t.assignment, assign)
		t.length = append(t.length, target)
		if retain {
			parts = append(parts, levelPartition{d: d, beta: beta})
		}
		level++
		target /= 2
		if level > 60 {
			break
		}
	}
	// Final level: every vertex its own leaf. Pieces at the last Partition
	// level still have radius up to ~δ_max(β=0.9) ≈ ln n, so the leaf edge
	// carries length ln(n)+1 to keep the tree metric dominating for pairs
	// that only separate here (the O(log n) bottom term every tree
	// embedding of an unweighted graph pays).
	leaf := make([]uint32, n)
	for v := range leaf {
		leaf[v] = uint32(v)
	}
	t.assignment = append(t.assignment, leaf)
	t.length = append(t.length, logn+1)
	t.Levels = len(t.assignment)
	return t, parts, nil
}

// Dist returns the tree-metric distance between u and v: twice the sum of
// level lengths below their lowest common level of agreement.
func (t *Tree) Dist(u, v uint32) float64 {
	if u == v {
		return 0
	}
	// Find the first level where they separate.
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

// DistortionStats summarizes measured distortion over sampled vertex pairs.
type DistortionStats struct {
	Pairs          int
	MeanDistortion float64
	MaxDistortion  float64
	// DominatedFrac is the fraction of sampled pairs with
	// dist_T >= dist_G (tree metrics must dominate; measured to verify).
	DominatedFrac float64
}

// MeasureDistortion samples vertex pairs within one component and compares
// tree distance to true graph distance. The sample budget is bounded by
// attempts, so sparse or disconnected graphs — where most sampled pairs
// are unreachable — return however many pairs were found instead of
// spinning (an edgeless graph used to hang here).
func (t *Tree) MeasureDistortion(pairs int, seed uint64) DistortionStats {
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
		dist := bfs.Sequential(t.G, u)
		// Sample a handful of targets per BFS to amortize its cost.
		for k := 0; k < 8 && st.Pairs < pairs; k++ {
			v := uint32(rng.Intn(n))
			if v == u || dist[v] == bfs.Unreached {
				continue
			}
			dg := float64(dist[v])
			dt := t.Dist(u, v)
			distortion := dt / dg
			sum += distortion
			if distortion > st.MaxDistortion {
				st.MaxDistortion = distortion
			}
			if dt >= dg-1e-9 {
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
