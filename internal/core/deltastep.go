package core

import (
	"context"
	"math"
	"sync/atomic"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// deltaStep is the Meyer–Sanders Δ-stepping engine behind
// PartitionWeightedParallel: shortest paths from an implicit super-source,
// where init[v] is the starting distance of v (+Inf for non-sources) —
// the shifted-shortest-path primitive of the paper's Section 5 lifted to
// weighted graphs. It writes the distances into dist and the
// shortest-path forest into parent (both of length n, unreached vertices
// keep +Inf and parent themselves) and returns the number of relaxation
// rounds. Vertices are bucketed by ⌊dist/Δ⌋ and each bucket is settled by
// parallel relaxation rounds; delta <= 0 means DefaultDelta.
//
// Each round relaxes the out-edges of the frontier from the frontier's
// distances as of the start of the round, lowering target distances
// through an atomic minimum on the IEEE bits (positive float64 ordering
// matches uint64 ordering of their bits). The set of vertices a round
// improves and their distances after it are therefore a function of the
// round's input alone, and each improved vertex is bucketed once, by its
// distance at the end of the round: the frontiers, the buckets and the
// round count are the same at every worker count. Distances converge to
// the unique fixpoint of dist[v] = min(init[v], min_u dist[u]+w(u,v)) —
// every relaxation order reaches the same bits because the float
// additions are identical and min never rounds — and parents are then
// recovered by one deterministic pull pass (resolveParents), so dist and
// parent are bit-identical across worker counts (docs/determinism.md).
//
// ctx (nil means never cancelled) is polled between relaxation rounds —
// never inside a kernel — and a cancelled search returns ctx.Err(), with
// dist and parent left holding no meaningful result.
func deltaStep(ctx context.Context, pool *parallel.Pool, g *graph.WeightedGraph, init []float64, delta float64, workers int, dist []float64, parent []uint32) (rounds int, err error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	if delta <= 0 {
		delta = DefaultDelta(g)
	}

	// distBits holds the distances as atomically-updatable bits.
	distBits := make([]uint64, n)
	for i := range distBits {
		distBits[i] = math.Float64bits(init[i])
	}

	sc := relaxScratch{
		g:        g,
		pool:     pool,
		workers:  workers,
		delta:    delta,
		distBits: distBits,
		inBucket: make([]int32, n),
		stamp:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		if !math.IsInf(init[v], 1) {
			sc.enqueue(uint32(v), sc.bucketOf(uint32(v)))
		}
	}
	for cur := 0; cur < len(sc.buckets); cur++ {
		// Settle bucket cur with relaxation rounds until it stops changing.
		frontier := sc.buckets[cur]
		sc.buckets[cur] = nil
		for len(frontier) > 0 {
			if err := ctxErr(ctx); err != nil {
				return rounds, err
			}
			rounds++
			frontier = sc.relax(frontier, cur)
		}
	}
	for v := 0; v < n; v++ {
		dist[v] = math.Float64frombits(distBits[v])
	}
	resolveParents(pool, g, init, dist, parent, workers)
	return rounds, nil
}

// relaxScratch is the state of one deltaStep run: the distance words, the
// buckets, and the reusable round buffers — the start-of-round distance
// copy, the per-worker lists of improved vertices, the double-buffered
// same-bucket output frontier, and the stamp array backing the
// allocation-free dedup.
type relaxScratch struct {
	g        *graph.WeightedGraph
	pool     *parallel.Pool
	workers  int
	delta    float64
	distBits []uint64

	buckets  [][]uint32
	inBucket []int32 // bucket index+1 the vertex was last queued in

	start   []uint64
	buffers [][]uint32
	same    [2][]uint32
	flip    int
	stamp   []int32
	epoch   int32
}

// bucketOf is the bucket of v's current distance.
func (sc *relaxScratch) bucketOf(v uint32) int {
	return int(math.Float64frombits(sc.distBits[v]) / sc.delta)
}

// enqueue queues v in bucket b unless b is the bucket it was last queued
// in.
func (sc *relaxScratch) enqueue(v uint32, b int) {
	if sc.inBucket[v] == int32(b)+1 {
		return
	}
	sc.inBucket[v] = int32(b) + 1
	for b >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[b] = append(sc.buckets[b], v)
}

// relax runs one round over the frontier of bucket cur and returns the
// next frontier. It copies the frontier's distances before the kernel, so
// every frontier vertex relaxes from its distance at the start of the
// round even when another frontier vertex lowers it mid-round; such a
// vertex is improved, and relaxes again next round. The kernel lowers
// target distances with CAS on the IEEE bits and records only which
// vertices it improved. After it, each improved vertex is placed once, by
// its final distance: in (or before) bucket cur it joins the next frontier
// (double-buffered against the one just consumed), later it is queued in
// its bucket. Parents are not tracked here — they are recovered
// deterministically from the settled distances by resolveParents.
func (sc *relaxScratch) relax(frontier []uint32, cur int) []uint32 {
	g, distBits := sc.g, sc.distBits
	nf := len(frontier)
	start := parallel.Grow(sc.start, nf)
	sc.start = start
	sc.pool.ForRange(sc.workers, nf, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			start[i] = distBits[frontier[i]]
		}
	})
	w := parallel.Workers(sc.workers, nf)
	if cap(sc.buffers) < w {
		sc.buffers = make([][]uint32, w)
	}
	buffers := sc.buffers[:w]
	sc.pool.Run(w, func(k int) {
		lo := k * nf / w
		hi := (k + 1) * nf / w
		buf := buffers[k][:0]
		for i := lo; i < hi; i++ {
			dv := math.Float64frombits(start[i])
			nbrs, ws := g.Neighbors(frontier[i])
			for j, u := range nbrs {
				nd := dv + ws[j]
				for {
					oldBits := atomic.LoadUint64(&distBits[u])
					if math.Float64frombits(oldBits) <= nd {
						break
					}
					if atomic.CompareAndSwapUint64(&distBits[u], oldBits, math.Float64bits(nd)) {
						buf = append(buf, u)
						break
					}
				}
			}
		}
		buffers[k] = buf
	})

	same := sc.same[sc.flip][:0]
	sc.flip ^= 1
	sc.nextEpoch()
	for _, buf := range buffers {
		for _, v := range buf {
			if sc.stamp[v] == sc.epoch {
				continue // improved by several frontier vertices
			}
			sc.stamp[v] = sc.epoch
			if b := sc.bucketOf(v); b <= cur {
				same = append(same, v)
			} else {
				sc.enqueue(v, b)
			}
		}
	}
	sc.same[sc.flip^1] = same[:0]
	return same
}

// nextEpoch starts a fresh dedup generation of the stamp array, clearing
// it only when the epoch counter wraps; no per-round allocation, unlike a
// map.
func (sc *relaxScratch) nextEpoch() {
	if sc.epoch == math.MaxInt32 {
		clear(sc.stamp)
		sc.epoch = 0
	}
	sc.epoch++
}

// resolveParents recovers the shortest-path forest from the settled
// distances in one deterministic pull pass: every reached non-source
// vertex v takes the minimum packed (candidate distance bits, proposer id)
// key over its in-neighborhood — candidate u proposes key
// (Float64bits(dist[u]+w(u,v)), u), compared lexicographically — and
// adopts the winner as parent when its candidate distance equals dist[v]
// bit-exactly. At the fixpoint such a witness normally exists (the winning
// relaxation computed dist[v] as dist[u]+w from u's final distance, the
// identical float expression).
//
// Acyclicity needs care in floating point: when an edge weight is below
// half an ulp of the neighbor's distance, dist[u]+w rounds to dist[u], so
// adjacent vertices can hold bit-equal distances and each would explain
// the other. A candidate is therefore admitted only if it is strictly
// closer than v, or bit-equal with a smaller id — parent chains then
// strictly decrease (dist, id) lexicographically, so the forest is
// acyclic; a vertex whose only witnesses are equal-distance higher ids
// keeps itself as parent (it roots its own tree, still a valid forest).
// Sources (init[v] == dist[v]) and unreached vertices parent themselves.
// Because the pass is a pure function of the deterministic distances,
// Parent is bit-identical across worker counts, which is what makes the
// weighted partition's center assignment deterministic by construction.
func resolveParents(pool *parallel.Pool, g *graph.WeightedGraph, init, dist []float64, parent []uint32, workers int) {
	n := g.NumVertices()
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			parent[v] = uint32(v)
			dv := dist[v]
			if math.IsInf(dv, 1) || init[v] == dv {
				continue // unreached, or the vertex's own start won
			}
			dvBits := math.Float64bits(dv)
			bestBits := ^uint64(0)
			bestU := uint32(v)
			nbrs, ws := g.Neighbors(uint32(v))
			for j, u := range nbrs {
				db := math.Float64bits(dist[u])
				if db > dvBits || (db == dvBits && u >= uint32(v)) {
					continue // would not strictly decrease (dist, id)
				}
				cb := math.Float64bits(dist[u] + ws[j])
				if cb < bestBits || (cb == bestBits && u < bestU) {
					bestBits, bestU = cb, u
				}
			}
			if bestBits == dvBits {
				parent[v] = bestU
			}
		}
	})
}
