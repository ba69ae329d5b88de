package lowstretch

// This file is the true AKPW construction the unweighted BuildPoolCtx
// approximates: Alon–Karp–Peleg–West low-stretch spanning trees of
// WEIGHTED graphs. AKPW is fundamentally a weighted scheme — edges are
// bucketed into geometric weight classes and the graph is contracted level
// by level at a geometrically growing distance scale, so each level's
// decomposition clusters the edges of the next class while heavier classes
// ride along as cut edges. Here the bucketing feeds the weighted hierarchy
// engine directly: the class histogram fixes the level count, the per-level
// β schedule shrinks geometrically with the class scale (β_l in units of
// inverse weighted distance), and the Δ-stepping bucket width rides the
// same schedule. Every level runs core.PartitionWeightedParallel; each
// cluster's shortest-path tree lands in the forest mapped back to original
// edges through the engine's annotations, by the capture helper the
// unweighted tree uses; clusters contract with summed edge weights
// (graph.ContractWeightedClustersPool). Once the hierarchy returns, the
// tree edges take their original weights and index into the LCA index
// both trees share.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// akpwClassGrowth is the geometric growth factor y of the AKPW weight
// classes: class c holds edges with weight in [wmin·y^c, wmin·y^(c+1)),
// and level l of the hierarchy clusters at distance scale wmin·y^l/β.
const akpwClassGrowth = 4.0

// WeightedTree is a spanning forest of a weighted graph with O(1) LCA and
// weighted tree-distance queries.
type WeightedTree struct {
	// G is the original weighted graph.
	G *graph.WeightedGraph
	// Edges are the tree edges with their original weights.
	Edges []graph.WeightedEdge
	// Levels is the number of decompose-and-contract levels used.
	Levels int
	// Stats summarizes each hierarchy level, including the weighted
	// per-level fields.
	Stats []hier.LevelStat
	// ClassHistogram counts the original edges per AKPW weight class
	// (class c = weights in [MinWeight·y^c, MinWeight·y^(c+1)), y = 4).
	ClassHistogram []int64
	// MinWeight is the lightest edge weight, the base of the class scale.
	MinWeight float64

	lcaIndex
	wdepth []float64 // weighted depth from the component root
}

// BuildWeightedPoolCtx constructs an AKPW low-stretch spanning forest of
// wg with base decomposition parameter beta, on pool (nil means
// parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS). dir is ignored: the weighted partition has one round
// kernel, and the parameter stays only for existing callers. beta is
// interpreted at the lightest weight class: level l decomposes with
// β_l = beta/(wmin·y^l) (clamped into the valid (0, 1) range), so cluster
// radii grow by the class factor y per level — the AKPW progression. For
// a fixed (wg, beta, seed) the forest is bit-identical at every worker
// count. ctx (nil means never cancelled) is polled at level and
// Δ-stepping round boundaries; a cancelled build returns (nil, ctx.Err())
// with no partial forest.
func BuildWeightedPoolCtx(ctx context.Context, pool *parallel.Pool, wg *graph.WeightedGraph, beta float64, seed uint64, workers int, dir core.Direction) (*WeightedTree, error) {
	if !core.ValidBeta(beta) {
		return nil, core.ErrBeta
	}
	t := &WeightedTree{G: wg}
	n := wg.NumVertices()
	if n == 0 {
		return t, nil
	}
	if wg.NumEdges() == 0 {
		return t, t.index(nil, nil)
	}

	// Weight-class bucketing: per-vertex min/max reduce, then a pooled
	// per-class histogram over the upper arcs. The histogram pins the class
	// count, which bounds the level count the schedule needs.
	wmin, wmax := hier.WeightRangeOnPool(pool, workers, wg)
	if math.IsInf(wmax/wmin, 1) {
		// Finite weights whose ratio overflows would give a negative class
		// count below.
		return nil, fmt.Errorf("lowstretch: weight range [%g, %g] overflows the weight-class scale", wmin, wmax)
	}
	t.MinWeight = wmin
	numClasses := 1
	if wmax > wmin {
		numClasses = int(math.Floor(math.Log(wmax/wmin)/math.Log(akpwClassGrowth))) + 1
	}
	t.ClassHistogram = classHistogramOnPool(pool, workers, wg, wmin, numClasses)

	// Levels: enough to walk every class plus the O(log n) contraction tail
	// within the final class.
	maxLevels := numClasses + 1
	for m := int64(n); m > 0; m >>= 1 {
		maxLevels += 2
	}
	maxLevels += 16

	var edges []graph.Edge
	h, err := hier.BuildWeightedHierarchy(hier.Config{
		Ctx: ctx,
		WBetaAt: func(level int) float64 {
			return clampBeta(beta / (wmin * math.Pow(akpwClassGrowth, float64(level))))
		},
		Seed:         seed,
		Workers:      workers,
		Pool:         pool,
		MaxLevels:    maxLevels,
		NeedEdgeOrig: true,
	}, wg, func(lv *hier.Level) error {
		// Per-cluster shortest-path-tree edges -> original tree edges.
		edges = appendTreeEdges(edges, lv, lv.WD.Parent)
		return nil
	})
	if err == hier.ErrMaxLevels {
		return nil, errors.New("lowstretch: weighted contraction failed to converge")
	}
	if err != nil {
		return nil, err
	}
	t.Levels = h.Levels()
	t.Stats = h.Result().Stats
	// The tree edges carry their original weights, looked up once the edge
	// set is final.
	w := make([]float64, len(edges))
	t.Edges = make([]graph.WeightedEdge, len(edges))
	for i, e := range edges {
		var ok bool
		if w[i], ok = wg.Weight(e.U, e.V); !ok {
			return nil, errors.New("lowstretch: annotation produced a non-edge")
		}
		t.Edges[i] = graph.WeightedEdge{U: e.U, V: e.V, W: w[i]}
	}
	return t, t.index(edges, w)
}

// clampBeta forces a schedule value into PartitionWeightedParallel's valid
// open interval: huge scales clamp to a near-1 β (singleton-ish clusters,
// the level passes the class through), tiny ones to a floor that still
// yields one giant cluster.
func clampBeta(b float64) float64 {
	const lo, hi = 1e-12, 0.95
	if b > hi {
		return hi
	}
	if b < lo {
		return lo
	}
	return b
}

// classHistogramOnPool counts undirected edges per weight class with a
// per-block histogram merge in (class, block) order — deterministic
// integer sums.
func classHistogramOnPool(pool *parallel.Pool, workers int, wg *graph.WeightedGraph, wmin float64, numClasses int) []int64 {
	n := wg.NumVertices()
	w := parallel.Blocks(workers, n)
	local := make([]int64, w*numClasses)
	logY := math.Log(akpwClassGrowth)
	pool.ForBlocks(w, n, func(k, lo, hi int) {
		h := local[k*numClasses : (k+1)*numClasses]
		for v := lo; v < hi; v++ {
			nbrs, ws := wg.Neighbors(uint32(v))
			for i, u := range nbrs {
				if uint32(v) >= u {
					continue
				}
				c := 0
				if ws[i] > wmin {
					c = int(math.Floor(math.Log(ws[i]/wmin) / logY))
				}
				if c >= numClasses {
					c = numClasses - 1
				}
				h[c]++
			}
		}
	})
	hist := make([]int64, numClasses)
	for k := 0; k < w; k++ {
		for c := 0; c < numClasses; c++ {
			hist[c] += local[k*numClasses+c]
		}
	}
	return hist
}

// index builds the LCA index and the weighted depths over the tree edges,
// whose weights w holds, and verifies the edge set is a spanning forest.
func (t *WeightedTree) index(edges []graph.Edge, w []float64) error {
	n := t.G.NumVertices()
	t.wdepth = make([]float64, n)
	if comps := t.build(n, edges, w, t.wdepth, nil); len(edges) != n-comps {
		return errors.New("lowstretch: weighted edge set is not a spanning forest")
	}
	return nil
}

// Dist returns the weighted tree distance between u and v, or -1 if they
// lie in different components.
func (t *WeightedTree) Dist(u, v uint32) float64 {
	a, b := t.pre[u], t.pre[v]
	if a > b {
		a, b = b, a
	}
	l := u
	if a != b {
		k := t.minKey(a, b)
		if k>>32 == 0 {
			return -1 // the range holds a root: different components
		}
		l = uint32(k)
	}
	return t.wdepth[u] + t.wdepth[v] - 2*t.wdepth[l]
}

// WeightedStretchStats summarizes edge stretch over the whole edge set:
// for every original edge {u, v} of weight w, its stretch is the weighted
// tree distance divided by w.
type WeightedStretchStats struct {
	Edges int64
	Mean  float64
	Max   float64
	Total float64
}

// Stretch computes exact weighted stretch statistics over every original
// edge using O(1) LCA queries.
func (t *WeightedTree) Stretch() WeightedStretchStats {
	var st WeightedStretchStats
	for v := 0; v < t.G.NumVertices(); v++ {
		nbrs, ws := t.G.Neighbors(uint32(v))
		for i, u := range nbrs {
			if uint32(v) >= u {
				continue
			}
			d := t.Dist(uint32(v), u)
			if d < 0 {
				continue // different components cannot happen for real edges
			}
			s := d / ws[i]
			st.Edges++
			st.Total += s
			if s > st.Max {
				st.Max = s
			}
		}
	}
	if st.Edges > 0 {
		st.Mean = st.Total / float64(st.Edges)
	}
	return st
}
