// Package hier is the parallel decompose-and-contract hierarchy engine:
// the recursive driver behind every multi-level application of the paper's
// Partition (AKPW-style low-stretch trees, Linial–Saks blocks, LDD
// connectivity, tree-metric embeddings, separators).
//
// Both graph kinds run through one level loop. Each level runs
// core.Partition (core.PartitionWeightedParallel on weighted graphs) on the
// shared parallel.Pool, classifies edges intra/cut with pooled kernels,
// and either contracts clusters into super-vertices
// (graph.ContractClustersPool — slice-based label compaction plus a pool
// radix sort on packed (qu, qv) keys) or keeps the vertex set and recurses
// on the residual cut subgraph (graph.CutSubgraphPool — the Linial–Saks
// iteration); one function picks among those kernels and their weighted
// entry points, which share one body per mode in package graph. The engine maintains original-edge annotations across levels —
// callers that need the original→final vertex map fold each visit's
// Level.Quot — and reuses every piece of scratch, so a steady-state level
// allocates a small constant number of objects sized O(cut edges) — never
// the O(m) per-level map rebuilds the serial app loops paid.
//
// Output is deterministic: Partition is bit-identical across worker counts
// and traversal directions, contraction and classification are
// deterministic pooled kernels, and the per-level seeds are derived by
// xrand.Mix(seed, level) — so every application built on the engine
// inherits bit-identical output at workers 1/2/8 × push/pull/auto. See
// docs/determinism.md.
package hier

import (
	"context"
	"errors"
	"sort"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// ctxErr polls ctx at a level boundary; a nil ctx is never cancelled. As
// in core, the poll calls ctx.Err() directly so fault-injection contexts
// that trip on the Nth poll observe every boundary.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ErrMaxLevels reports a hierarchy that did not converge (run out of edges
// or vertices) within Config.MaxLevels levels.
var ErrMaxLevels = errors.New("hier: hierarchy failed to converge within MaxLevels")

// Config configures a hierarchy build. Beta (or, for weighted builds,
// WBetaAt) must be set; the zero value is invalid.
type Config struct {
	// Ctx, when non-nil, cancels a hierarchy build in flight. It is polled
	// at level boundaries and forwarded into every per-level Partition
	// (which polls it between rounds). Cancellation is all-or-nothing: a
	// cancelled build returns ctx.Err() and no hierarchy. Nil means never
	// cancelled. Updates take their own context (Hierarchy.UpdateCtx).
	Ctx context.Context
	// Beta is the per-level decomposition parameter (used when WBetaAt is
	// nil).
	Beta float64
	// WBetaAt, when non-nil, supplies the per-level β schedule of a
	// weighted build (BuildWeightedHierarchy), in units of inverse
	// weighted distance. Nil means the flat Beta.
	WBetaAt func(level int) float64
	// Seed fixes all randomness; level l decomposes with
	// xrand.Mix(Seed, l).
	Seed uint64
	// Workers caps logical parallelism of every kernel (<= 0 means
	// GOMAXPROCS), exactly as core.Options.Workers.
	Workers int
	// Pool is the persistent worker pool every level executes on; nil
	// means parallel.Default().
	Pool *parallel.Pool
	// Direction is forwarded to every unweighted Partition call; weighted
	// builds ignore it.
	Direction core.Direction
	// MaxLevels caps the level count defensively; 0 means 64.
	MaxLevels int
	// Residual keeps the vertex set fixed and recurses on the cut-edge
	// subgraph (Linial–Saks blocks) instead of contracting clusters.
	Residual bool
	// NeedEdgeOrig maintains per-level original-edge annotations so
	// Level.OrigEdge can map any current edge back to an original edge
	// (low-stretch trees emit tree edges in original coordinates).
	NeedEdgeOrig bool
	// NeedIntra collects each level's intra-cluster edges (in original
	// coordinates when annotations are tracked) into Level.IntraEdges —
	// the block decomposition's per-level edge class.
	NeedIntra bool
}

func (c Config) maxLevels() int {
	if c.MaxLevels > 0 {
		return c.MaxLevels
	}
	return 64
}

func (c Config) wbetaAt(level int) float64 {
	if c.WBetaAt != nil {
		return c.WBetaAt(level)
	}
	return c.Beta
}

// LevelStat summarizes one hierarchy level for reporting (cmd/mpx -app
// prints these).
type LevelStat struct {
	Level       int
	N           int   // vertices entering the level
	M           int64 // edges entering the level
	Clusters    int   // decomposition pieces
	CutEdges    int64 // edges crossing pieces
	CutFraction float64
	QuotientN   int // vertices of the next level's graph

	// Weighted runs additionally record the level's weight structure.
	// The float aggregates are measurements, not determinism-gated output:
	// the block reductions computing them depend on the logical worker
	// count in their last float bits. Rounds is the same at every worker
	// count.
	Weighted          bool
	TotalWeight       float64 // sum of edge weights entering the level
	CutWeight         float64 // weight crossing pieces (== next level's total)
	CutWeightFraction float64
	WMaxRadius        float64 // largest weighted distance to an assigned center
	Rounds            int     // Δ-stepping relaxation rounds of the level
}

// Level is the per-level view handed to the visit callback. Slices alias
// engine scratch unless noted and are valid only during the callback.
type Level struct {
	// Index is the level number, 0 for the original graph.
	Index int
	// G is the graph decomposed at this level (the original graph at
	// level 0, a quotient or residual graph afterwards). In weighted runs
	// it is the unweighted view of WG, sharing its CSR storage.
	G *graph.Graph
	// D is the decomposition of G (nil in weighted runs; see WD).
	D *core.Decomposition
	// WG is the weighted graph decomposed at this level (weighted runs
	// only; nil otherwise).
	WG *graph.WeightedGraph
	// WD is the weighted decomposition of WG (weighted runs only).
	WD *core.WeightedDecomposition
	// Quot maps each vertex of G to its super-vertex in the next level's
	// graph (contract mode; nil in residual mode). Retained by the caller
	// freely — it is not scratch.
	Quot []uint32
	// NumQuot is the next level's vertex count.
	NumQuot int
	// IntraEdges are this level's intra-cluster edges in original
	// coordinates (Config.NeedIntra; aliases scratch — copy to retain).
	IntraEdges []graph.Edge
	// Kept reports a level that Hierarchy.UpdateCtx refreshed with its
	// partition verified unchanged and whose OrigEdge map is the identity,
	// as level 0's always is. Everything a visit derives from D and
	// OrigEdge alone — a tree segment, for one — then equals what the
	// previous visit of this level derived, so the caller may keep it.
	// Builds and re-derived levels leave Kept false.
	Kept bool

	eng  *engine
	orig []graph.Edge // annotation per canonical edge rank of G; nil = identity
}

// OrigEdge returns the original-graph edge represented by the edge {a, b}
// of this level's graph. {a, b} must be an edge of Level.G. Requires
// Config.NeedEdgeOrig (level 0 works regardless: edges are their own
// originals).
func (lv *Level) OrigEdge(a, b uint32) graph.Edge {
	if a > b {
		a, b = b, a
	}
	if lv.orig == nil {
		return graph.Edge{U: a, V: b}
	}
	return lv.orig[lv.eng.edgeRank(lv.G, a, b)]
}

// Result is the outcome of a full hierarchy run.
type Result struct {
	// Levels is the number of decomposition levels executed.
	Levels int
	// Stats holds one entry per level.
	Stats []LevelStat
	// Final is the fully contracted (or fully residual) graph the run
	// stopped on: it has no edges unless the run errored.
	Final *graph.Graph
	// WFinal is the weighted final graph of a weighted hierarchy (its
	// unweighted view is Final).
	WFinal *graph.WeightedGraph
}

// engine owns the reusable scratch of a hierarchy: one per Hierarchy,
// persisting across its levels, rebuilds and updates.
type engine struct {
	cfg Config
	sc  graph.ContractScratch

	// Edge-annotation scratch (NeedEdgeOrig / NeedIntra).
	cutKeys  []uint64
	cutVals  []uint32
	keyTmp   []uint64
	valTmp   []uint32
	cutOrig  []graph.Edge
	intra    []graph.Edge
	rankBase []int64
	cutBase  []int64

	// OrigEdge rank tables for the current level's graph.
	upperOff   []int64
	firstUpper []int32
	rankFor    *graph.Graph
}

// annotateContraction computes the next level's original-edge annotations:
// for every edge of the quotient graph (in canonical (U, V) order), the
// annotation of the first cut edge of cur — in cur's canonical edge order
// — that contracts onto it. "First" is realized by a stable pool radix
// sort on the packed quotient-pair keys, so the choice is deterministic at
// every worker count.
func (e *engine) annotateContraction(cur *graph.Graph, orig []graph.Edge, center, quot []uint32, next *graph.Graph) []graph.Edge {
	pool := e.cfg.Pool
	workers := e.cfg.Workers
	w, rankBase, cutBase := e.countUpper(cur, center)
	offsets, adjacency := cur.Offsets(), cur.Adjacency()
	c := int(cutBase[w])
	e.cutKeys = parallel.Grow(e.cutKeys, c)
	e.cutVals = parallel.Grow(e.cutVals, c)
	e.cutOrig = parallel.Grow(e.cutOrig, c)
	cutKeys, cutVals, cutOrig := e.cutKeys, e.cutVals, e.cutOrig
	// Second pass: emit each cut edge's quotient-pair key and its original-edge
	// annotation; the running upper-arc counter is exactly cur's canonical
	// edge rank, which indexes the current annotation table.
	pool.ForBlocks(w, cur.NumVertices(), func(k, lo, hi int) {
		rank := rankBase[k]
		pos := cutBase[k]
		for v := lo; v < hi; v++ {
			cv := center[v]
			for _, u := range adjacency[offsets[v]:offsets[v+1]] {
				if u <= uint32(v) {
					continue
				}
				if center[u] != cv {
					qa, qb := quot[v], quot[u]
					if qa > qb {
						qa, qb = qb, qa
					}
					cutKeys[pos] = uint64(qa)<<32 | uint64(qb)
					if orig == nil {
						cutOrig[pos] = graph.Edge{U: uint32(v), V: u}
					} else {
						cutOrig[pos] = orig[rank]
					}
					cutVals[pos] = uint32(pos)
					pos++
				}
				rank++
			}
		}
	})
	e.keyTmp = parallel.Grow(e.keyTmp, c)
	e.valTmp = parallel.Grow(e.valTmp, c)
	pool.SortPairs(workers, cutKeys[:c], cutVals[:c], e.keyTmp, e.valTmp)

	// Runs of equal keys are the quotient edges in canonical order; the
	// stable sort put the first-collected (lowest current-edge-rank) cut
	// edge at each run's head. The offset scan over the run heads splits
	// the cut-edge range, not the vertices, into its own blocks.
	nextOrig := make([]graph.Edge, next.NumEdges())
	wc := parallel.Blocks(workers, c)
	e.rankBase = parallel.Grow(e.rankBase, wc+1)
	dedupBase := e.rankBase
	heads := pool.ScanBlocks(wc, c, dedupBase, func(lo, hi int) int64 {
		var cnt int64
		for i := lo; i < hi; i++ {
			if i == 0 || cutKeys[i] != cutKeys[i-1] {
				cnt++
			}
		}
		return cnt
	})
	if heads != int64(len(nextOrig)) {
		panic("hier: quotient edge count mismatch between contraction and annotation")
	}
	pool.ForBlocks(wc, c, func(k, lo, hi int) {
		pos := dedupBase[k]
		for i := lo; i < hi; i++ {
			if i == 0 || cutKeys[i] != cutKeys[i-1] {
				nextOrig[pos] = cutOrig[cutVals[i]]
				pos++
			}
		}
	})
	return nextOrig
}

// countUpper is the first pass annotateContraction and collectIntra
// share. It splits cur's vertices into w blocks and counts, per block, the
// upper arcs (canonical edge ranks) and the cut edges among them:
// rankBase[k] and cutBase[k] hold the counts before block k, and index w
// holds the totals. Both slices alias engine scratch.
func (e *engine) countUpper(cur *graph.Graph, center []uint32) (int, []int64, []int64) {
	n := cur.NumVertices()
	w := parallel.Blocks(e.cfg.Workers, n)
	e.rankBase = parallel.Grow(e.rankBase, w+1)
	e.cutBase = parallel.Grow(e.cutBase, w+1)
	rankBase, cutBase := e.rankBase, e.cutBase
	offsets, adjacency := cur.Offsets(), cur.Adjacency()
	e.cfg.Pool.ForBlocks(w, n, func(k, lo, hi int) {
		var upper, cut int64
		for v := lo; v < hi; v++ {
			cv := center[v]
			for _, u := range adjacency[offsets[v]:offsets[v+1]] {
				if u <= uint32(v) {
					continue
				}
				upper++
				if center[u] != cv {
					cut++
				}
			}
		}
		rankBase[k+1] = upper
		cutBase[k+1] = cut
	})
	rankBase[0], cutBase[0] = 0, 0
	for k := 1; k <= w; k++ {
		rankBase[k] += rankBase[k-1]
		cutBase[k] += cutBase[k-1]
	}
	return w, rankBase, cutBase
}

// collectIntra gathers the intra-cluster edges of cur in canonical order,
// mapped to original coordinates through the current annotation table.
// Each block's intra edges start at its upper arcs before it minus its
// cut edges before it.
func (e *engine) collectIntra(cur *graph.Graph, orig []graph.Edge, center []uint32) []graph.Edge {
	w, rankBase, cutBase := e.countUpper(cur, center)
	offsets, adjacency := cur.Offsets(), cur.Adjacency()
	e.intra = parallel.Grow(e.intra, int(rankBase[w]-cutBase[w]))
	intra := e.intra
	e.cfg.Pool.ForBlocks(w, cur.NumVertices(), func(k, lo, hi int) {
		rank := rankBase[k]
		pos := rankBase[k] - cutBase[k]
		for v := lo; v < hi; v++ {
			cv := center[v]
			for _, u := range adjacency[offsets[v]:offsets[v+1]] {
				if u <= uint32(v) {
					continue
				}
				if center[u] == cv {
					if orig == nil {
						intra[pos] = graph.Edge{U: uint32(v), V: u}
					} else {
						intra[pos] = orig[rank]
					}
					pos++
				}
				rank++
			}
		}
	})
	return intra
}

// buildRank prepares the upper-triangular edge-rank tables OrigEdge
// queries against: upperOff[v] is the canonical rank of v's first upper
// edge and firstUpper[v] the adjacency index of v's first neighbor > v.
func (e *engine) buildRank(g *graph.Graph) {
	if e.rankFor == g {
		return
	}
	pool := e.cfg.Pool
	workers := e.cfg.Workers
	n := g.NumVertices()
	e.upperOff = parallel.Grow(e.upperOff, n)
	e.firstUpper = parallel.Grow(e.firstUpper, n)
	upperOff, firstUpper := e.upperOff, e.firstUpper
	pool.For(workers, n, func(v int) {
		nb := g.Neighbors(uint32(v))
		i := sort.Search(len(nb), func(i int) bool { return nb[i] > uint32(v) })
		firstUpper[v] = int32(i)
		upperOff[v] = int64(len(nb) - i)
	})
	pool.ExclusiveScan(workers, upperOff[:n])
	e.rankFor = g
}

// edgeRank returns the canonical rank of edge {a, b} (a < b) of g.
func (e *engine) edgeRank(g *graph.Graph, a, b uint32) int {
	if e.rankFor != g {
		panic("hier: OrigEdge called outside its level's visit callback")
	}
	nb := g.Neighbors(a)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= b })
	if i == len(nb) || nb[i] != b {
		panic("hier: OrigEdge on a non-edge")
	}
	return int(e.upperOff[a]) + i - int(e.firstUpper[a])
}
