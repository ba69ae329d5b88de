package core

import (
	"context"
	"math"
	"sync/atomic"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// Beamer-style switch constants for the weighted rounds, recalibrated like
// the unweighted partition's: a pull round pays the arcs of the whole
// unsettled cohort (it cannot early-exit the scan, the true minimum is
// needed), so it only wins once the frontier's arcs are a sizable fraction
// of the cohort's and the frontier itself is dense.
const (
	wpullEnter   = 2 // enter pull when frontierArcs*wpullEnter > unsettledArcs
	wpullKeep    = 4 // stay pulling while frontierArcs*wpullKeep > unsettledArcs
	wpullMinFrac = 8 // and only when the frontier holds > n/wpullMinFrac vertices
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
// dir selects the round direction. Push rounds relax the out-edges of the
// frontier through an atomic minimum on the IEEE distance bits (positive
// float64 ordering matches uint64 ordering of their bits); pull rounds have
// every unsettled vertex scan its own in-neighborhood for frontier members
// and take the minimum candidate distance itself (only the owner writes
// its word, so the round is race-free); auto switches per round, pushing
// while the frontier's arcs are few and pulling once they rival the
// unsettled cohort's. Distances converge to the unique fixpoint of
// dist[v] = min(init[v], min_u dist[u]+w(u,v)) — every relaxation order
// reaches the same bits because the float additions are identical and min
// never rounds — and parents are then recovered by one deterministic pull
// pass (resolveParents), so dist and parent are bit-identical across
// directions and worker counts (docs/determinism.md). The round count
// describes the schedule actually executed and may differ between
// directions, and between runs with several workers (a CAS race can move
// an improvement by a round).
//
// ctx (nil means never cancelled) is polled between relaxation rounds —
// never inside a kernel — and a cancelled search returns ctx.Err(), with
// dist and parent left holding no meaningful result.
func deltaStep(ctx context.Context, pool *parallel.Pool, g *graph.WeightedGraph, init []float64, delta float64, workers int, dir Direction, dist []float64, parent []uint32) (rounds int, err error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	if delta <= 0 {
		delta = DefaultDelta(g)
	}
	copy(dist, init)
	for i := range parent {
		parent[i] = uint32(i)
	}

	// distBits holds the distances as atomically-updatable bits.
	distBits := make([]uint64, n)
	for i := range distBits {
		distBits[i] = math.Float64bits(init[i])
	}

	bucketOf := func(d float64) int { return int(d / delta) }
	var buckets [][]uint32
	inBucket := make([]int32, n) // bucket index+1 the vertex was last queued in
	for v := 0; v < n; v++ {
		if !math.IsInf(init[v], 1) {
			b := bucketOf(init[v])
			for b >= len(buckets) {
				buckets = append(buckets, nil)
			}
			buckets[b] = append(buckets[b], uint32(v))
			inBucket[v] = int32(b) + 1
		}
	}
	if len(buckets) == 0 {
		return 0, nil
	}

	sc := relaxScratch{cohortCur: -1, unsettledArcs: 2 * g.NumEdges(), stamp: make([]int32, n)}
	push := func(v uint32, b int) {
		for b >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}
	pulling := false
	cur := 0
	for cur < len(buckets) {
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		// Settle bucket cur with relaxation rounds until it stops changing.
		frontier := buckets[cur]
		buckets[cur] = nil
		for len(frontier) > 0 {
			if err := ctxErr(ctx); err != nil {
				return rounds, err
			}
			rounds++
			switch dir {
			case DirectionForcePush:
				pulling = false
			case DirectionForcePull:
				pulling = true
			default:
				// The arc count costs a reduction over the frontier, so it
				// is only computed when the cheap size gate leaves pull
				// reachable (or a pull streak needs its keep check); thin
				// frontiers stay on push for free.
				fr := frontier
				if pulling || len(fr) > n/wpullMinFrac {
					frontierArcs := pool.ReduceInt64(workers, len(fr), func(i int) int64 {
						return int64(g.Degree(fr[i]))
					})
					if pulling {
						pulling = frontierArcs*wpullKeep > sc.unsettledArcs
					} else {
						pulling = frontierArcs*wpullEnter > sc.unsettledArcs
					}
				} else {
					pulling = false
				}
			}
			if pulling {
				ensureCohort(pool, g, distBits, delta, cur, workers, &sc)
				frontier = pullFrontier(g, frontier, distBits, cur, workers,
					push, inBucket, bucketOf, &sc, pool)
			} else {
				frontier = relaxFrontier(g, frontier, distBits, cur, workers,
					push, inBucket, bucketOf, &sc, pool)
			}
		}
		cur++
	}
	for v := 0; v < n; v++ {
		dist[v] = math.Float64frombits(distBits[v])
	}
	resolveParents(pool, g, init, dist, parent, workers)
	return rounds, nil
}

// enq records a distance improvement: vertex v now falls in bucket b.
type enq struct {
	v uint32
	b int
}

// relaxScratch is the reusable round state of the bucket relaxation:
// per-worker improvement buffers, the double-buffered same-bucket output
// frontier, the stamp array backing the allocation-free dedup, and the
// pull-side frontier bitmap and unsettled cohort.
type relaxScratch struct {
	buffers [][]enq
	same    [2][]uint32
	flip    int
	stamp   []int32
	epoch   int32
	// inFrontier is the bit-packed frontier membership map pull rounds scan
	// against.
	inFrontier *parallel.Bitset
	// cohort is the unsettled vertex list pull rounds iterate: every vertex
	// whose tentative distance falls in the current or a later bucket. It
	// only shrinks (when the bucket clock advances), so it is filtered, not
	// rebuilt, and double-buffered through cohortSpare.
	cohort        []uint32
	cohortSpare   []uint32
	cohortCur     int
	unsettledArcs int64
}

// collect merges the per-worker improvement buffers: improvements staying
// in (or before) the current bucket become the next same-bucket frontier
// (double-buffered against the one just consumed), later ones are enqueued
// into their buckets. Dedup is needed only after racing push rounds, where
// several proposers can improve one vertex in the same round; pull rounds
// append each vertex at most once (by its owner).
func (sc *relaxScratch) collect(buffers [][]enq, cur int, push func(uint32, int), inBucket []int32, needDedup bool) []uint32 {
	same := sc.same[sc.flip][:0]
	sc.flip ^= 1
	for _, buf := range buffers {
		for _, e := range buf {
			if e.b <= cur {
				// Still in (or before) the current bucket: re-relax now.
				same = append(same, e.v)
			} else if inBucket[e.v] != int32(e.b)+1 {
				inBucket[e.v] = int32(e.b) + 1
				push(e.v, e.b)
			}
		}
	}
	if needDedup {
		same = sc.dedup(same)
	}
	sc.same[sc.flip^1] = same[:0]
	return same
}

// dedup removes duplicate vertex ids with an epoch-stamped array (a vertex
// improved by several frontier members in one round appears once in the
// next round); no per-round allocation, unlike a map.
func (sc *relaxScratch) dedup(vs []uint32) []uint32 {
	if len(vs) < 2 {
		return vs
	}
	if sc.epoch == math.MaxInt32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	out := vs[:0]
	for _, v := range vs {
		if sc.stamp[v] != sc.epoch {
			sc.stamp[v] = sc.epoch
			out = append(out, v)
		}
	}
	return out
}

// relaxFrontier is the push (top-down) round: it relaxes all edges out of
// the frontier, lowering target distances with CAS on the IEEE bits. The
// relaxation is a fixpoint iteration, so races only cost extra rounds,
// never wrong distances; parents are not tracked here — they are recovered
// deterministically from the settled distances by resolveParents.
func relaxFrontier(g *graph.WeightedGraph, frontier []uint32, distBits []uint64,
	cur int, workers int,
	push func(uint32, int), inBucket []int32, bucketOf func(float64) int,
	sc *relaxScratch, pool *parallel.Pool) []uint32 {

	w := parallel.Workers(workers, len(frontier))
	if cap(sc.buffers) < w {
		sc.buffers = make([][]enq, w)
	}
	buffers := sc.buffers[:w]
	nf := len(frontier)
	pool.Run(w, func(k int) {
		lo := k * nf / w
		hi := (k + 1) * nf / w
		buf := buffers[k][:0]
		for i := lo; i < hi; i++ {
			v := frontier[i]
			dv := math.Float64frombits(atomic.LoadUint64(&distBits[v]))
			nbrs, ws := g.Neighbors(v)
			for j, u := range nbrs {
				nd := dv + ws[j]
				for {
					oldBits := atomic.LoadUint64(&distBits[u])
					if math.Float64frombits(oldBits) <= nd {
						break
					}
					if atomic.CompareAndSwapUint64(&distBits[u], oldBits, math.Float64bits(nd)) {
						buf = append(buf, enq{u, bucketOf(nd)})
						break
					}
				}
			}
		}
		buffers[k] = buf
	})
	return sc.collect(buffers, cur, push, inBucket, true)
}

// pullFrontier is the pull (bottom-up) round: every vertex of the
// unsettled cohort scans its own neighborhood for frontier members and
// takes the minimum candidate distance serially — the same min the push
// round races through CAS, computed race-free because only the owning
// vertex writes its distance word. Frontier membership is a bit-packed
// parallel.Bitset reset in O(n/64).
func pullFrontier(g *graph.WeightedGraph, frontier []uint32, distBits []uint64,
	cur int, workers int,
	push func(uint32, int), inBucket []int32, bucketOf func(float64) int,
	sc *relaxScratch, pool *parallel.Pool) []uint32 {

	n := g.NumVertices()
	if sc.inFrontier == nil {
		sc.inFrontier = parallel.NewBitset(n)
	} else {
		parallel.FillPool(pool, workers, sc.inFrontier.Words(), 0)
	}
	inF := sc.inFrontier
	fr := frontier
	pool.ForRange(workers, len(fr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inF.SetAtomic(fr[i])
		}
	})
	cohort := sc.cohort
	w := parallel.Workers(workers, len(cohort))
	if cap(sc.buffers) < w {
		sc.buffers = make([][]enq, w)
	}
	buffers := sc.buffers[:w]
	nc := len(cohort)
	pool.Run(w, func(k int) {
		lo := k * nc / w
		hi := (k + 1) * nc / w
		buf := buffers[k][:0]
		for i := lo; i < hi; i++ {
			u := cohort[i]
			du := math.Float64frombits(atomic.LoadUint64(&distBits[u]))
			best := du
			nbrs, ws := g.Neighbors(u)
			for j, v := range nbrs {
				if !inF.Get(v) {
					continue
				}
				if cand := math.Float64frombits(atomic.LoadUint64(&distBits[v])) + ws[j]; cand < best {
					best = cand
				}
			}
			if best < du {
				atomic.StoreUint64(&distBits[u], math.Float64bits(best))
				buf = append(buf, enq{u, bucketOf(best)})
			}
		}
		buffers[k] = buf
	})
	return sc.collect(buffers, cur, push, inBucket, false)
}

// ensureCohort (re)builds the pull cohort: the unsettled vertices, i.e.
// those whose current tentative distance falls in bucket cur or later
// (+Inf included). The unsettled set is stable within one bucket —
// settlement happens only when the bucket clock advances — so consecutive
// pull rounds (and push rounds in between) reuse the list; on a clock
// advance the previous cohort is filtered in place (it only ever shrinks),
// and the unsettled arc count driving the Beamer switch is refreshed.
func ensureCohort(pool *parallel.Pool, g *graph.WeightedGraph, distBits []uint64,
	delta float64, cur int, workers int, sc *relaxScratch) {

	unsettled := func(v uint32) bool {
		d := math.Float64frombits(distBits[v])
		return math.IsInf(d, 1) || int(d/delta) >= cur
	}
	switch {
	case sc.cohort == nil:
		sc.cohort = pool.PackInto(workers, len(distBits), func(i int) bool {
			return unsettled(uint32(i))
		}, sc.cohortSpare)
		sc.cohortSpare = nil
	case sc.cohortCur != cur:
		old := sc.cohort
		sc.cohort = pool.FilterUint32(workers, old, unsettled, sc.cohortSpare)
		sc.cohortSpare = old[:0]
	default:
		return
	}
	sc.cohortCur = cur
	co := sc.cohort
	sc.unsettledArcs = pool.ReduceInt64(workers, len(co), func(i int) int64 {
		return int64(g.Degree(co[i]))
	})
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
// Parent is bit-identical across worker counts and traversal directions,
// which is what makes the weighted partition's center assignment
// deterministic by construction.
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
