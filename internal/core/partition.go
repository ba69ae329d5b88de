package core

import (
	"sync/atomic"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// unclaimed is the sentinel claim word; any real proposal (rank<<32|vertex,
// both below 2^32-1) compares smaller.
const unclaimed = ^uint64(0)

// Direction-switch constants in the style of Beamer et al. (SC 2012 — the
// paper's ref [8]), recalibrated for claim resolution: unlike BFS
// bottom-up, which stops at the first frontier parent, a pull round must
// scan each unclaimed vertex's whole neighborhood to find the true minimum
// key, so its cost is the full unexplored arc count. Pull therefore pays
// only once the unexplored arcs fall below a small multiple of the frontier
// arcs (the multiple buys back push's atomic-CAS and scattered-write
// overhead), with a wider exit band as hysteresis.
const (
	pullEnter = 2 // enter pull when frontierArcs*pullEnter > remainingArcs
	pullKeep  = 4 // stay pulling while frontierArcs*pullKeep > remainingArcs
	// pullMinFrac gates entry on frontierArcs > n/pullMinFrac: building the
	// unclaimed cohort costs a fixed pack over the vertices with edges,
	// which a thin frontier (the slow wavefront of a high-diameter grid)
	// can never pay back. n counts isolated vertices too, so the schedule
	// is a function of the graph, not of how many vertices the rounds skip.
	pullMinFrac = 8
)

// partitionScratch owns every piece of per-round state the BFS reuses, so
// a steady-state round allocates nothing beyond the submitted closures:
// per-worker claim/open buffers and arc counters, and the double-buffered
// frontier and pull-cohort lists.
type partitionScratch struct {
	claimBufs [][]uint32
	openBufs  [][]uint32
	arcs      []int64
	// frontSpare is the buffer the next round's newly-claimed list is
	// compacted into; after each round the dead frontier's buffer takes its
	// place (classic double buffering). cohortSpare plays the same role for
	// the pull cohort.
	frontSpare  []uint32
	cohortSpare []uint32
}

func (sc *partitionScratch) ensure(w int) {
	if cap(sc.claimBufs) < w {
		sc.claimBufs = make([][]uint32, w)
		sc.openBufs = make([][]uint32, w)
		sc.arcs = make([]int64, w)
	}
}

// Partition computes a (β, O(log n/β)) decomposition of g — the paper's
// Algorithm 1/2. Every vertex u draws δ_u ~ Exp(β); v joins the cluster of
// the center minimizing dist(u,v) − δ_u, with same-round ties broken by the
// shift fractional parts (or an explicit permutation, per Options).
//
// The implementation is the Section 5 reduction to a single multi-source
// BFS: vertex u may start a cluster at round ⌊δ_max − δ_u⌋, claims are
// resolved per round by a minimum over (rank(center), proposer) keys, and
// each round is expanded with level-synchronous parallelism. Rounds run in
// one of two directions: push (frontier vertices propose to unclaimed
// neighbors, racing through an atomic minimum) or pull (each unclaimed
// vertex serially scans its own neighborhood and takes the minimum key —
// race-free by construction). Both directions resolve every claim to the
// same minimum over the same proposal set, so the output is bit-identical
// across directions and deterministic for fixed (graph, β, seed) at any
// worker count. Options.Direction selects push, pull, or automatic
// per-round Beamer switching.
//
// Every round executes on the persistent worker pool (Options.Pool) and
// reuses the partitionScratch buffers: frontier compaction is an offset
// scan over per-worker buffer lengths plus a parallel copy, and the
// frontier arc count for the Beamer switch is accumulated inside the claim
// kernel, so steady-state rounds perform no O(n) allocation and no extra
// frontier pass.
//
// Only vertices with edges take part in rounds. The plan packs them once,
// and the tie-break sort, the start buckets, the round loop and the pull
// cohort run over that list. An isolated vertex always ends up as its own
// one-vertex cluster (Center = Parent = v, Dist = 0), so one O(n) pass
// writes it directly. Rounds includes the rounds isolated vertices make a
// loop over every vertex run (see Decomposition.Rounds), and Shifts,
// DeltaMax and the start rounds cover every vertex. The cost linear in n
// is a handful of flat passes (shift generation, δ_max, start rounds, the
// pack, the fill), so a near-empty graph — a late Linial–Saks residual
// level — costs those passes plus the rounds of its few edges.
//
// Expected cost matches Theorem 1.2: O(m) work and O(log²n/β) depth — here
// realized as O((log n/β) · rounds) with each round a constant number of
// parallel primitives.
//
// Robustness: Options.Ctx is polled between rounds; a cancelled call
// returns (nil, ctx.Err()) with no partial result. A panic inside a round
// kernel (contained by the pool, or raised on the serial path) is
// recovered here and returned as a *parallel.PanicError; the pool and its
// scratch stay reusable either way. See docs/robustness.md.
func Partition(g *graph.Graph, beta float64, opts Options) (d *Decomposition, err error) {
	if !ValidBeta(beta) {
		return nil, ErrBeta
	}
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, parallel.Recovered(r)
		}
	}()
	n := g.NumVertices()
	d = &Decomposition{
		G:      g,
		Beta:   beta,
		Center: make([]uint32, n),
		Dist:   make([]int32, n),
		Parent: make([]uint32, n),
	}
	if n == 0 {
		return d, nil
	}

	offsets := g.Offsets()
	plan := newShiftPlan(n, beta, opts, func(v int) bool { return offsets[v+1] > offsets[v] })
	d.Shifts = plan.shifts
	d.DeltaMax = plan.deltaMax
	d.bucket = plan.bucket
	if opts.TieBreak == TiePermutation {
		d.perm = plan.rank
	}

	pool := opts.Pool
	claim := make([]uint64, n)
	level := make([]int32, n)
	// Rounds counts the rounds of a loop over every vertex, which runs
	// round b and round b+1 for the start round b of each isolated vertex:
	// its self-claim, then its one-vertex frontier. isoRound[r] marks those
	// rounds until the loop below runs one itself, so each counts once.
	isoRound := make([]uint32, len(plan.buckets)+1)
	pool.ForRange(opts.Workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if offsets[v+1] > offsets[v] {
				claim[v] = unclaimed
				level[v] = -1
				continue
			}
			d.Center[v], d.Parent[v] = uint32(v), uint32(v)
			if b := plan.bucket[v]; atomic.LoadUint32(&isoRound[b]) == 0 {
				atomic.StoreUint32(&isoRound[b], 1)
			}
		}
	})
	for r := len(isoRound) - 1; r > 0; r-- {
		isoRound[r] |= isoRound[r-1]
	}

	packed := func(v uint32) uint64 {
		return uint64(plan.rank[v])<<32 | uint64(v)
	}

	sc := &partitionScratch{}
	var frontier []uint32
	var pullList []uint32  // unclaimed cohort, valid only across pull rounds
	var frontierArcs int64 // outgoing arcs of the current frontier
	remainingArcs := g.NumArcs()
	pulling := false
	var relaxed int64
	t := int32(0)
	maxBucket := int32(len(plan.buckets) - 1)
	for {
		// Cancellation point: between rounds only, so no round is ever
		// left partially resolved.
		if cerr := ctxErr(opts.Ctx); cerr != nil {
			return nil, cerr
		}
		// Fast-forward the clock over empty rounds (no frontier, no pending
		// centers until a later bucket).
		if len(frontier) == 0 {
			next := t
			for next <= maxBucket && len(plan.buckets[next]) == 0 {
				next++
			}
			if next > maxBucket {
				break
			}
			t = next
		}
		var bucket []uint32
		if t <= maxBucket {
			bucket = plan.buckets[t]
		}

		// Direction decision; the inputs (frontier size, arc counts) are
		// deterministic, so the push/pull schedule is too.
		switch opts.Direction {
		case DirectionForcePush:
			pulling = false
		case DirectionForcePull:
			pulling = true
		default:
			if pulling {
				pulling = frontierArcs*pullKeep > remainingArcs
			} else {
				pulling = frontierArcs*pullEnter > remainingArcs &&
					frontierArcs > int64(n)/pullMinFrac
			}
		}

		var newly []uint32
		var newArcs int64
		if pulling {
			// The pull cohort is the unclaimed vertex list, kept filtered
			// across consecutive pull rounds so each round costs
			// O(|unclaimed| + arcs(unclaimed)), not O(n). Push rounds claim
			// vertices without maintaining it, so it is rebuilt on re-entry.
			if pullList == nil {
				pullList = pool.FilterUint32(opts.Workers, plan.verts, func(v uint32) bool {
					return level[v] == -1
				}, sc.cohortSpare)
				sc.cohortSpare = nil
			}
			oldCohort := pullList
			newly, pullList, newArcs = runRoundPull(g, plan, claim, level, d.Center, t, opts, packed, &relaxed, pullList, sc)
			// The dead cohort buffer becomes the next round's compaction
			// target for the open remainder.
			sc.cohortSpare = oldCohort[:0]
		} else {
			if pullList != nil {
				// Leaving pull: the cohort buffer returns to the spare slot.
				if sc.cohortSpare == nil {
					sc.cohortSpare = pullList[:0]
				}
				pullList = nil
			}
			newly, newArcs = runRound(g, frontier, bucket, claim, level, d.Center, opts, packed, &relaxed, sc)
		}

		// Resolution: finalize every vertex claimed this round. Claim words
		// are stable now (barrier above), so plain reads are safe.
		pool.ForRange(opts.Workers, len(newly), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := newly[i]
				proposer := uint32(claim[w])
				level[w] = t
				if proposer == w {
					d.Center[w] = w
					d.Parent[w] = w
					d.Dist[w] = 0
				} else {
					c := d.Center[proposer]
					d.Center[w] = c
					d.Parent[w] = proposer
					d.Dist[w] = t - plan.bucket[c]
				}
			}
		})
		// The newly claimed vertices are the next frontier and leave the
		// unexplored set; their arc count was accumulated inside the round
		// kernel, so no extra frontier pass is needed.
		frontierArcs = newArcs
		remainingArcs -= newArcs
		// Double-buffer swap: the dead frontier's storage becomes the next
		// round's compaction target.
		sc.frontSpare = frontier[:0]
		frontier = newly
		d.Rounds++
		if int(t) < len(isoRound) {
			isoRound[t] = 0
		}
		t++
	}
	for _, r := range isoRound {
		d.Rounds += int(r)
	}
	d.Relaxed = relaxed
	return d, nil
}

// runRound is the push (top-down) round: it gathers self-proposals from
// this round's start bucket and expansion proposals from the previous
// frontier, resolving them with an atomic minimum per target vertex. It
// returns the set of vertices claimed this round (each exactly once,
// appended by the proposer that first transitioned the claim word away from
// the sentinel) together with their summed out-degree, compacted from the
// per-worker buffers by an offset scan and a parallel copy into the
// scratch's reused output buffer.
func runRound(g *graph.Graph, frontier, bucket []uint32, claim []uint64,
	level []int32, center []uint32, opts Options,
	packed func(uint32) uint64, relaxed *int64, sc *partitionScratch) (newly []uint32, newArcs int64) {

	work := len(frontier) + len(bucket)
	w := parallel.Workers(opts.Workers, work)
	sc.ensure(w)
	bufs := sc.claimBufs[:w]
	arcs := sc.arcs[:w]
	// Rows are read from the raw arrays: Neighbors on a graph ApplyBatch
	// returned is a call per row, even once its flat CSR exists.
	offsets, adj := g.Offsets(), g.Adjacency()
	pool := opts.Pool
	nf, nb := len(frontier), len(bucket)
	pool.Run(w, func(k int) {
		flo, fhi := k*nf/w, (k+1)*nf/w
		blo, bhi := k*nb/w, (k+1)*nb/w
		buf := bufs[k][:0]
		var local, claimedArcs int64
		// Self-proposals: unclaimed vertices whose start time falls in
		// this round propose themselves as centers.
		for i := blo; i < bhi; i++ {
			u := bucket[i]
			if level[u] == -1 {
				if first := proposeMin(&claim[u], packed(u)); first {
					buf = append(buf, u)
					claimedArcs += offsets[u+1] - offsets[u]
				}
			}
		}
		// Expansion proposals: frontier vertices offer their cluster to
		// unclaimed neighbors.
		for i := flo; i < fhi; i++ {
			v := frontier[i]
			p := packed(center[v])
			for _, u := range adj[offsets[v]:offsets[v+1]] {
				local++
				if level[u] != -1 {
					continue
				}
				if first := proposeMin(&claim[u], p&^0xffffffff|uint64(v)); first {
					buf = append(buf, u)
					claimedArcs += offsets[u+1] - offsets[u]
				}
			}
		}
		bufs[k] = buf
		arcs[k] = claimedArcs
		atomic.AddInt64(relaxed, local)
	})
	for k := 0; k < w; k++ {
		newArcs += arcs[k]
	}
	out := pool.Concat(opts.Workers, sc.frontSpare[:0], bufs)
	sc.frontSpare = nil
	return out, newArcs
}

// runRoundPull is the pull (bottom-up) round: every vertex of the
// unclaimed cohort scans its own neighborhood for round-(t−1) frontier
// members plus its own self-proposal (when its start bucket is t) and takes
// the minimum packed (rank, proposer) key serially. Only the owning vertex
// writes its claim word, so the round is race-free, and the minimum it
// computes is over exactly the proposal set the push round would race
// through an atomic minimum — the resulting claim words, and therefore the
// decomposition, are bit-identical. The cohort splits into the claimed set
// (returned as the next frontier, with its summed out-degree) and the
// still-open remainder (the next round's cohort); both preserve the
// cohort's vertex order: each block writes only its own vertices' claim
// words and buffers, and Concat joins the buffers in block order into
// reused lists.
func runRoundPull(g *graph.Graph, plan *shiftPlan, claim []uint64,
	level []int32, center []uint32, t int32, opts Options,
	packed func(uint32) uint64, relaxed *int64, cohort []uint32,
	sc *partitionScratch) (newly, rest []uint32, newArcs int64) {

	// prev identifies frontier members by their claim round. It is -1 on
	// the very first round (t == 0), where unclaimed vertices also carry
	// level -1 — scanning neighbors there would mistake every unclaimed
	// vertex for a frontier member, so the scan is skipped entirely (the
	// frontier is empty at t == 0 by construction).
	prev := t - 1
	scanNeighbors := prev >= 0
	nc := len(cohort)
	w := parallel.Blocks(opts.Workers, nc)
	sc.ensure(w)
	claimedBufs := sc.claimBufs[:w]
	openBufs := sc.openBufs[:w]
	arcs := sc.arcs[:w]
	offsets, adj := g.Offsets(), g.Adjacency() // raw rows, as in runRound
	pool := opts.Pool
	pool.ForBlocks(w, nc, func(k, lo, hi int) {
		claimedBuf := claimedBufs[k][:0]
		openBuf := openBufs[k][:0]
		var local, claimedArcs int64
		for i := lo; i < hi; i++ {
			u := cohort[i]
			best := unclaimed
			if plan.bucket[u] == t {
				best = packed(u)
			}
			if scanNeighbors {
				for _, v := range adj[offsets[u]:offsets[u+1]] {
					local++
					if level[v] != prev {
						continue // not a current-frontier member
					}
					if p := packed(center[v])&^0xffffffff | uint64(v); p < best {
						best = p
					}
				}
			}
			if best != unclaimed {
				claim[u] = best
				claimedBuf = append(claimedBuf, u)
				claimedArcs += offsets[u+1] - offsets[u]
			} else {
				openBuf = append(openBuf, u)
			}
		}
		claimedBufs[k] = claimedBuf
		openBufs[k] = openBuf
		arcs[k] = claimedArcs
		atomic.AddInt64(relaxed, local)
	})
	for k := 0; k < w; k++ {
		newArcs += arcs[k]
	}
	newly = pool.Concat(opts.Workers, sc.frontSpare[:0], claimedBufs)
	sc.frontSpare = nil
	rest = pool.Concat(opts.Workers, sc.cohortSpare[:0], openBufs)
	sc.cohortSpare = nil
	return newly, rest, newArcs
}

// proposeMin lowers *addr to v if smaller and reports whether this call was
// the first to move the word off the unclaimed sentinel (the signal to
// enqueue the target exactly once).
func proposeMin(addr *uint64, v uint64) (first bool) {
	for {
		old := atomic.LoadUint64(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, v) {
			return old == unclaimed
		}
	}
}
