// Package oracle is the high-QPS query layer over prebuilt decomposition
// structures (experiment E25): tree-distance oracles over the low-stretch
// forests of internal/apps/lowstretch, and cluster-membership oracles over
// the persistent hierarchies of internal/hier.
//
// The package serves reads only — it never mutates the underlying
// structures, and every query is a pure function of the built structure,
// so results are bit-deterministic regardless of how batches are sharded
// (docs/determinism.md). All oracles are safe for any number of concurrent
// readers as long as nothing mutates the underlying Tree/Hierarchy; the
// MembershipOracle additionally holds its own reference to the cluster
// maps, which the hierarchy replaces but never writes, so it stays valid
// (answering as-of-construction) even while the source hierarchy is
// updated.
//
// Each oracle has a scalar API for point lookups and a batched API that
// shards the batch across the shared parallel.Pool into a caller-owned
// output slice. The batch APIs are the zero-alloc hot path: they allocate
// nothing per query (the only garbage is the O(1) closure handed to the
// pool, amortized over the batch — the E25 benchmarks gate this at 0
// allocs/query steady-state). See docs/queries.md.
package oracle

import (
	"mpx/internal/apps/lowstretch"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Pair is one (U, V) query of a distance or same-cluster batch.
type Pair struct {
	U, V uint32
}

// minBatchGrain is the smallest per-worker slice of a batch worth
// scheduling: below it, sharding overhead dominates the (tens of ns) query
// cost, so small batches run on the calling goroutine.
const minBatchGrain = 256

// shard splits n queries across the pool, calling body(lo, hi) per shard.
// Batches smaller than one grain run inline on the caller.
func shard(pool *parallel.Pool, workers, n int, body func(lo, hi int)) {
	if n == 0 {
		return
	}
	if n <= minBatchGrain {
		body(0, n)
		return
	}
	if w := (n + minBatchGrain - 1) / minBatchGrain; workers <= 0 || workers > w {
		workers = w
	}
	pool.ForRange(workers, n, body)
}

// DistanceOracle answers tree-distance queries over an unweighted
// low-stretch forest. The tree distance upper-bounds the graph distance
// and exceeds it only by the forest's stretch (polylog in expectation for
// the AKPW construction), so it doubles as a stretch-bounded approximate
// graph-distance oracle. Queries are O(1) via the tree's LCA index, a
// block range-minimum query over DFS preorder keys in O(n) words.
//
// The oracle holds the Tree by reference: it is safe for concurrent
// readers while the tree is not being mutated (no Incremental.UpdateCtx in
// flight). Construction allocates nothing beyond the oracle header.
type DistanceOracle struct {
	t       *lowstretch.Tree
	pool    *parallel.Pool
	workers int
}

// NewDistance wraps t in a distance oracle. Batches shard on pool (nil
// means parallel.Default()) with at most workers logical workers (<= 0
// means GOMAXPROCS).
func NewDistance(t *lowstretch.Tree, pool *parallel.Pool, workers int) *DistanceOracle {
	return &DistanceOracle{t: t, pool: pool, workers: workers}
}

// Dist returns the tree distance between u and v, or -1 if they lie in
// different components of the forest.
func (o *DistanceOracle) Dist(u, v uint32) int32 { return o.t.Dist(u, v) }

// DistBatch answers pairs[i] into out[i] for every i, sharding the batch
// across the pool. out must have at least len(pairs) entries — the caller
// owns it, so steady-state serving reuses one buffer and the query path
// allocates nothing. Results are bit-identical to the scalar loop
//
//	for i, p := range pairs { out[i] = o.Dist(p.U, p.V) }
//
// at every worker count (each element is an independent pure lookup).
func (o *DistanceOracle) DistBatch(pairs []Pair, out []int32) {
	out = out[:len(pairs)]
	t := o.t
	shard(o.pool, o.workers, len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Dist(pairs[i].U, pairs[i].V)
		}
	})
}

// WeightedDistanceOracle is DistanceOracle over an AKPW weighted forest:
// weighted tree distance, an upper bound on weighted graph distance with
// the forest's stretch.
type WeightedDistanceOracle struct {
	t       *lowstretch.WeightedTree
	pool    *parallel.Pool
	workers int
}

// NewWeightedDistance wraps t in a weighted distance oracle; pool/workers
// as in NewDistance.
func NewWeightedDistance(t *lowstretch.WeightedTree, pool *parallel.Pool, workers int) *WeightedDistanceOracle {
	return &WeightedDistanceOracle{t: t, pool: pool, workers: workers}
}

// Dist returns the weighted tree distance between u and v, or -1 if they
// lie in different components.
func (o *WeightedDistanceOracle) Dist(u, v uint32) float64 { return o.t.Dist(u, v) }

// DistBatch is DistanceOracle.DistBatch for weighted distances: bit-
// identical to the scalar loop at every worker count, zero allocations per
// query into the caller-owned out.
func (o *WeightedDistanceOracle) DistBatch(pairs []Pair, out []float64) {
	out = out[:len(pairs)]
	t := o.t
	shard(o.pool, o.workers, len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Dist(pairs[i].U, pairs[i].V)
		}
	})
}

// MembershipOracle answers per-level cluster-membership queries over a
// decompose-and-contract hierarchy: which level-l cluster a base vertex
// belongs to, and whether two vertices share one. It takes the
// hierarchy's composed quotient maps (hier.Hierarchy.ClusterMaps) at
// construction — one flat uint32 array per level — so a query is a single
// array load. The arrays are shared with the hierarchy, read-only: an
// update that re-derives a level makes the hierarchy compose new arrays
// and never writes the old ones, so the oracle remains valid, answering as
// of construction, even while the source hierarchy is updated. Rebuild the
// oracle to observe an updated hierarchy; until an update re-derives a
// level, that rebuild reuses the same arrays and costs O(1).
type MembershipOracle struct {
	maps    [][]uint32
	pool    *parallel.Pool
	workers int
}

// NewMembership wraps h's cluster maps in a membership oracle: O(levels ·
// n) the first time after a build or a re-deriving update, O(1) after
// that. Batches shard on pool (nil means parallel.Default()) with at most
// workers logical workers (<= 0 means GOMAXPROCS).
func NewMembership(h *hier.Hierarchy, pool *parallel.Pool, workers int) *MembershipOracle {
	return &MembershipOracle{maps: h.ClusterMaps(), pool: pool, workers: workers}
}

// Levels returns the number of hierarchy levels the oracle answers for;
// valid query levels are [0, Levels()).
func (o *MembershipOracle) Levels() int { return len(o.maps) }

// NumVertices returns the base-graph vertex count (0 for an empty
// hierarchy).
func (o *MembershipOracle) NumVertices() int {
	if len(o.maps) == 0 {
		return 0
	}
	return len(o.maps[0])
}

// ClusterOf returns the id of the level-level cluster containing v: the
// cluster's center vertex, in level-coordinate ids (original ids for
// residual hierarchies). Ids are comparable within a level only.
func (o *MembershipOracle) ClusterOf(v uint32, level int) uint32 { return o.maps[level][v] }

// SameCluster reports whether u and v lie in the same level-level cluster.
func (o *MembershipOracle) SameCluster(u, v uint32, level int) bool {
	row := o.maps[level]
	return row[u] == row[v]
}

// ClusterBatch answers ClusterOf(verts[i], level) into out[i], sharding
// across the pool into the caller-owned out (len(out) >= len(verts));
// bit-identical to the scalar loop at every worker count, zero allocations
// per query.
func (o *MembershipOracle) ClusterBatch(level int, verts []uint32, out []uint32) {
	out = out[:len(verts)]
	row := o.maps[level]
	shard(o.pool, o.workers, len(verts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = row[verts[i]]
		}
	})
}

// SameClusterBatch answers SameCluster(pairs[i].U, pairs[i].V, level) into
// out[i]; the same contract as ClusterBatch.
func (o *MembershipOracle) SameClusterBatch(level int, pairs []Pair, out []bool) {
	out = out[:len(pairs)]
	row := o.maps[level]
	shard(o.pool, o.workers, len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = row[pairs[i].U] == row[pairs[i].V]
		}
	})
}
