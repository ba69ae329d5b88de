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
	pieceTree
}

// pieceTree is the decomposition tree Tree and WeightedTree share, grown
// by one level loop for both graph kinds.
type pieceTree struct {
	// Levels is the depth of the hierarchy.
	Levels int
	// Stats summarizes each decomposition level (sizes, clusters, cut;
	// weighted trees add the weighted per-level fields).
	Stats []hier.LevelStat
	// assignment[l][v] is the piece id (center, in level-l numbering of the
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

// buildTree is the unweighted builder behind BuildPoolCtx and
// BuildIncrementalPoolCtx; retain additionally returns the per-level
// decompositions for incremental maintenance.
func buildTree(ctx context.Context, pool *parallel.Pool, g *graph.Graph, diam0 float64, seed uint64, workers int, dir core.Direction, retain bool) (*Tree, []levelPartition, error) {
	n := g.NumVertices()
	t := &Tree{G: g}
	if n == 0 {
		return t, nil, nil
	}
	var parts []levelPartition
	base := core.Options{Ctx: ctx, Seed: seed, Workers: workers, Pool: pool, Direction: dir}
	err := t.grow(base, n, resolveDiam0(g, diam0), 1, 60, func(level int, beta float64, opts core.Options) ([]uint32, hier.LevelStat, error) {
		d, err := core.Partition(g, beta, opts)
		if err != nil {
			return nil, hier.LevelStat{}, err
		}
		if retain {
			parts = append(parts, levelPartition{d: d, beta: beta})
		}
		cut := graph.CutEdgesPool(pool, workers, g, d.Center)
		st := hier.LevelStat{
			Level: level, N: n, M: g.NumEdges(),
			Clusters: d.NumClusters(), CutEdges: cut, QuotientN: n,
		}
		if st.M > 0 {
			st.CutFraction = float64(cut) / float64(st.M)
		}
		return d.Center, st, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return t, parts, nil
}

// grow is the level loop both graph kinds share. While the diameter
// target, starting at diam0, is at least unit (the edge-length unit: 1,
// or the lightest weight), it partitions the whole graph at β =
// min(0.9, 2·ln(n+1)/target), refines the centers against the previous
// level and halves the target; it stops after level maxLevel. partition
// runs one level's decomposition with opts, whose seed it mixes with the
// level, and returns the centers with the level's stats.
func (t *pieceTree) grow(opts core.Options, n int, diam0, unit float64, maxLevel int,
	partition func(level int, beta float64, opts core.Options) ([]uint32, hier.LevelStat, error)) error {
	logn := math.Log(float64(n) + 1)
	seed := opts.Seed
	scratch := &hier.RefineScratch{}
	target := diam0
	level := 0
	for target >= unit {
		if err := ctxErr(opts.Ctx); err != nil {
			return err
		}
		beta := math.Min(0.9, 2*logn/target)
		opts.Seed = xrand.Mix(seed, uint64(level))
		center, st, err := partition(level, beta, opts)
		if err != nil {
			return err
		}
		var parent []uint32
		if level > 0 {
			parent = t.assignment[level-1]
		}
		t.Stats = append(t.Stats, st)
		t.assignment = append(t.assignment, refine(opts.Pool, opts.Workers, parent, center, scratch))
		t.length = append(t.length, target)
		level++
		target /= 2
		if level > maxLevel {
			break
		}
	}
	// Final level: every vertex its own leaf. Pieces at the last partition
	// level still have radius up to ~δ_max(β=0.9) ≈ ln n units, so the leaf
	// edge carries length (ln(n+1)+1)·unit to keep the tree metric
	// dominating for pairs that only separate here (the O(log n) bottom
	// term every tree embedding of an unweighted graph pays).
	leaf := make([]uint32, n)
	for v := range leaf {
		leaf[v] = uint32(v)
	}
	t.assignment = append(t.assignment, leaf)
	t.length = append(t.length, (logn+1)*unit)
	t.Levels = len(t.assignment)
	return nil
}

// refine returns a level's piece assignment: the centers themselves at
// level 0 (parent nil), otherwise their refinement of the parent level's
// assignment. A piece may not span two parent pieces, so the effective
// piece id is the composite key (parent piece, new center) canonicalized
// to its smallest member vertex so ids stay stable.
func refine(pool *parallel.Pool, workers int, parent, center []uint32, sc *hier.RefineScratch) []uint32 {
	n := len(center)
	assign := make([]uint32, n)
	if parent == nil {
		pool.ForRange(workers, n, func(lo, hi int) {
			copy(assign[lo:hi], center[lo:hi])
		})
	} else {
		hier.RefineAssignment(pool, workers, parent, center, assign, sc)
	}
	return assign
}

// Dist returns the tree-metric distance between u and v: twice the sum of
// level lengths below their lowest common level of agreement.
func (t *pieceTree) Dist(u, v uint32) float64 {
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
