package hier

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// This file turns the one-shot decompose-and-contract driver into an
// online system: a persistent Hierarchy retains every level's input graph,
// decomposition, quotient map and annotation table, and UpdateCtx applies a
// graph.Batch by re-deriving — never patching — exactly the levels whose
// inputs changed (the ROADMAP rule). The contract is strict bit-identity:
// after UpdateCtx, the Hierarchy's Result, every retained level, and every
// value a visit callback observes are identical to a from-scratch build on
// the updated graph with the same Config.
//
// Three facts localize the damage (docs/determinism.md §"Incremental
// re-derivation" gives the full argument):
//
//   - Level l's partition is seeded xrand.Mix(Seed, l) and its shift plan
//     never reads edges, so a batch can only change level l's output
//     through level l's input graph, and
//     core.Decomposition.UnchangedUnder verifies in O(batch) whether the
//     partition fixpoint survived the change.
//
//   - With the partition verified, a batch whose edges are all
//     intra-cluster leaves the cut-edge set — and therefore the quotient
//     (or residual) graph AND the annotation representatives — untouched:
//     inserting or deleting edges never reorders the surviving edges in
//     canonical order, so "first cut edge per quotient pair" picks the
//     same representatives. Only the level's own M-dependent stats and
//     intra-edge list need refreshing.
//
//   - Otherwise the contraction is re-run (partition reuse is the
//     expensive part; contraction is a scan) and the CSR diff of the old
//     and new quotient graphs becomes the next level's batch. The quotient
//     numbering is stable because the label-compaction order depends only
//     on the (unchanged) center array.
//
// Weighted hierarchies run the same walk, but a weighted level has no
// fixpoint check yet (a weight change can move Δ-stepping distances
// anywhere), so any effective weighted change re-derives from level 0.
// Bit-identity holds trivially; a weighted UnchangedUnder is an open
// ROADMAP item.
//
// Every derivation runs in two phases (docs/robustness.md): a pure compute
// phase (computeLevels / the staged UpdateCtx walk) that reads the live
// hierarchy but never mutates it and delivers no visits, and a commit
// phase that installs the staged state and only then replays the visit
// callbacks. Cancellation (Config.Ctx for builds, UpdateCtx's ctx for
// updates; polled at level and round boundaries) and contained panics
// therefore abort before commit: the hierarchy, its Result and the engine
// stay exactly as they were, and the same UpdateCtx can simply be retried.

// levelInput is the graph entering a level: g, plus its weighted form wg
// in weighted hierarchies (g is then wg.Unweighted(), sharing its CSR).
type levelInput struct {
	g  *graph.Graph
	wg *graph.WeightedGraph
}

// levelState is everything the Hierarchy retains per level: the level's
// input graph, its decomposition (wd in weighted hierarchies, d
// otherwise), the quotient map, and the annotation table that maps the
// input graph's canonical edges to original edges (nil = identity).
type levelState struct {
	levelInput
	d       *core.Decomposition
	wd      *core.WeightedDecomposition
	quot    []uint32
	numQuot int
	orig    []graph.Edge
}

// center returns the level's per-vertex center assignment.
func (st *levelState) center() []uint32 {
	if st.wd != nil {
		return st.wd.Center
	}
	return st.d.Center
}

// Hierarchy is a persistent decompose-and-contract hierarchy: the result
// of a build plus everything needed to maintain it under edge updates.
// It is not safe for concurrent use.
type Hierarchy struct {
	eng    *engine
	res    *Result
	levels []levelState
	// maps caches ClusterMaps. Only a re-derivation can move a center or
	// a quotient id, so only a re-derivation drops it.
	maps [][]uint32
}

// UpdateStats reports how much of the hierarchy an UpdateCtx reused.
type UpdateStats struct {
	// Levels is the level count after the update.
	Levels int
	// Rederived counts levels whose partition was re-run from scratch
	// (the damage frontier and everything above it).
	Rederived int
	// Refreshed counts levels below the frontier that were reprocessed
	// with their partition verified unchanged — stats, contraction, or
	// annotations recomputed, the O(n·rounds) partition skipped.
	Refreshed int
	// Reused counts levels spliced verbatim: no recomputation, no visit.
	Reused int
	// DirtyVertices is the number of base-graph vertices whose adjacency
	// the batch changed; InsEdges/DelEdges/ReweightedEdges are the
	// effective base-graph edge changes.
	DirtyVertices   int
	InsEdges        int
	DelEdges        int
	ReweightedEdges int
}

func (s UpdateStats) String() string {
	return fmt.Sprintf("update{levels=%d rederived=%d refreshed=%d reused=%d dirty=%d +%d/-%d/~%d}",
		s.Levels, s.Rederived, s.Refreshed, s.Reused, s.DirtyVertices, s.InsEdges, s.DelEdges, s.ReweightedEdges)
}

// BuildHierarchy builds a persistent unweighted hierarchy over g, invoking
// visit (which may be nil) once per level. It stops when the current graph
// has no edges and propagates any error from Partition or visit. The full
// derivation is computed before the first visit is delivered, so a
// cancellation (Config.Ctx) or a contained panic (*parallel.PanicError)
// returns nil and the error with no visit ever observed. On ErrMaxLevels
// (the cap was hit first) the hierarchy is returned alongside the error;
// its partial levels are consistent. Callers that only want the Result
// read h.Result() and drop h; keep h to call UpdateCtx.
func BuildHierarchy(cfg Config, g *graph.Graph, visit func(*Level) error) (*Hierarchy, error) {
	return build(cfg, levelInput{g: g}, visit)
}

// BuildWeightedHierarchy is BuildHierarchy for weighted graphs. Per level
// it runs core.PartitionWeightedParallel with β from Config.WBetaAt (or
// the flat Beta) and Δ-stepping bucket width 1/β, then contracts clusters
// through graph.ContractWeightedClustersPool (summing parallel edge
// weights) or rebuilds the weighted residual graph (Config.Residual).
// Edge annotations and intra-edge collection behave exactly as in
// BuildHierarchy; Level.G is the unweighted view of Level.WG, so OrigEdge
// works unchanged. Output is bit-identical at every worker count for a
// fixed (wg, config).
func BuildWeightedHierarchy(cfg Config, wg *graph.WeightedGraph, visit func(*Level) error) (*Hierarchy, error) {
	return build(cfg, levelInput{wg: wg}, visit)
}

// build is the one body of both builders: it derives every level over in
// (a weighted input arrives as wg alone), installs them, and replays the
// visits.
func build(cfg Config, in levelInput, visit func(*Level) error) (h *Hierarchy, err error) {
	defer func() {
		if r := recover(); r != nil {
			h, err = nil, parallel.Recovered(r)
		}
	}()
	if in.wg != nil {
		in.g = in.wg.Unweighted()
	}
	h = &Hierarchy{eng: &engine{cfg: cfg}, res: &Result{}}
	lvls, stats, final, err := h.eng.computeLevels(cfg.Ctx, 0, in, nil)
	if err != nil && !errors.Is(err, ErrMaxLevels) {
		return nil, err
	}
	h.install(lvls, stats, final)
	if verr := h.replayVisits(0, len(lvls), 0, visit); verr != nil {
		err = verr
	}
	if err != nil && !errors.Is(err, ErrMaxLevels) {
		return nil, err
	}
	return h, err
}

// Result returns the hierarchy's current result. The same pointer stays
// valid across updates; UpdateCtx mutates it in place (at commit time only).
func (h *Hierarchy) Result() *Result { return h.res }

// Levels returns the current level count.
func (h *Hierarchy) Levels() int { return h.res.Levels }

// Graph returns the current base graph (the updated one after UpdateCtx).
func (h *Hierarchy) Graph() *graph.Graph { return h.graphEntering(0).g }

// WeightedGraph returns the current weighted base graph (weighted
// hierarchies only; nil otherwise).
func (h *Hierarchy) WeightedGraph() *graph.WeightedGraph { return h.graphEntering(0).wg }

// install commits a derivation: its levels, their stats and the graph the
// last level produced.
func (h *Hierarchy) install(lvls []levelState, stats []LevelStat, final levelInput) {
	h.levels = lvls
	h.res.Stats = stats
	h.res.Levels = len(lvls)
	h.res.Final, h.res.WFinal = final.g, final.wg
}

// computeLevels derives levels start, start+1, ... for the graph cur
// entering level start (orig its annotation table; nil = identity). It is
// the pure compute phase of every build and update: it reads only the
// engine's configuration and scratch, never touches a Hierarchy, and
// delivers no visits — staged levels are installed and presented to the
// caller only after the whole derivation succeeds. ctx is polled at every
// level boundary and forwarded into each level's partition (which polls it
// between rounds). On ErrMaxLevels the levels computed so far are returned
// alongside the error (they are consistent and installable); any other
// error returns nothing.
//
// A weighted level differs from an unweighted one in its partition call,
// its rebuild kernel and its weighted LevelStat fields only.
func (e *engine) computeLevels(ctx context.Context, start int, cur levelInput, orig []graph.Edge) ([]levelState, []LevelStat, levelInput, error) {
	cfg := e.cfg
	pool := cfg.Pool
	var lvls []levelState
	var stats []LevelStat
	for level := start; cur.g.NumEdges() > 0; level++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, nil, levelInput{}, cerr
		}
		if level >= cfg.maxLevels() {
			return lvls, stats, cur, ErrMaxLevels
		}
		opts := core.Options{
			Ctx:       ctx,
			Seed:      xrand.Mix(cfg.Seed, uint64(level)),
			Workers:   cfg.Workers,
			Pool:      pool,
			Direction: cfg.Direction,
		}
		st := levelState{levelInput: cur, orig: orig}
		var err error
		if cur.wg == nil {
			st.d, err = core.Partition(cur.g, cfg.Beta, opts)
		} else {
			beta := cfg.wbetaAt(level)
			// Δ = 1/β, not the Meyer–Sanders default (max weight / avg degree):
			// that matches the WEIGHT scale, but shifted distances live on the
			// SHIFT scale Exp(β) — mean 1/β, range ~ln n/β. On AKPW schedules β
			// shrinks geometrically, so a weight-scale Δ would make the bucket
			// count (and the round count) explode exponentially with the level.
			// Δ = 1/β keeps it at ~ln n buckets per level at every scale.
			st.wd, err = core.PartitionWeightedParallel(cur.wg, beta, 1/beta, opts)
		}
		if err != nil {
			return nil, nil, levelInput{}, err
		}
		center := st.center()
		next, quot, err := e.rebuild(cur, center)
		if err != nil {
			return nil, nil, levelInput{}, err
		}
		st.quot = quot
		st.numQuot = next.g.NumVertices()
		var nextOrig []graph.Edge
		if quot != nil && cfg.NeedEdgeOrig {
			nextOrig = e.annotateContraction(cur.g, orig, center, quot, next.g)
		}

		// The rebuild already walked every arc and recorded the cut-arc
		// count; no second O(m) stats sweep.
		n := cur.g.NumVertices()
		stat := LevelStat{
			Level:     level,
			N:         n,
			M:         cur.g.NumEdges(),
			CutEdges:  e.sc.CutArcs / 2,
			QuotientN: st.numQuot,
		}
		stat.Clusters = int(pool.ReduceInt64(cfg.Workers, n, func(v int) int64 {
			if center[v] == uint32(v) {
				return 1
			}
			return 0
		}))
		if stat.M > 0 {
			stat.CutFraction = float64(stat.CutEdges) / float64(stat.M)
		}
		if wd := st.wd; wd != nil {
			stat.Weighted = true
			stat.TotalWeight = TotalWeightOnPool(pool, cfg.Workers, cur.wg)
			// Weighted contraction conserves cut weight exactly (parallel
			// edges sum), so the next graph's total IS this level's cut
			// weight.
			stat.CutWeight = TotalWeightOnPool(pool, cfg.Workers, next.wg)
			stat.WMaxRadius, _ = pool.MaxFloat64(cfg.Workers, n, func(i int) float64 { return wd.Dist[i] })
			stat.Rounds = wd.Rounds
			if stat.TotalWeight > 0 {
				stat.CutWeightFraction = stat.CutWeight / stat.TotalWeight
			}
		}

		lvls = append(lvls, st)
		stats = append(stats, stat)
		cur = next
		orig = nextOrig
	}
	return lvls, stats, cur, nil
}

// rebuild builds the graph entering the next level from a level's input
// and its centers, returning it with the quotient map (nil in residual
// mode). It holds the only switch over graph kind × mode: contract mode
// merges each cluster into one super-vertex (summing parallel edge weights
// in weighted hierarchies), and residual mode — the Linial–Saks blocks
// iteration — keeps the vertex set and recurses on the cut edges.
func (e *engine) rebuild(in levelInput, center []uint32) (next levelInput, quot []uint32, err error) {
	pool, workers, residual := e.cfg.Pool, e.cfg.Workers, e.cfg.Residual
	switch {
	case in.wg == nil && residual:
		next.g, err = graph.CutSubgraphPool(pool, workers, in.g, center, &e.sc)
	case in.wg == nil:
		next.g, quot, err = graph.ContractClustersPool(pool, workers, in.g, center, &e.sc)
	case residual:
		next.wg, err = graph.CutWeightedSubgraphPool(pool, workers, in.wg, center, &e.sc)
	default:
		next.wg, quot, err = graph.ContractWeightedClustersPool(pool, workers, in.wg, center, &e.sc)
	}
	if next.wg != nil {
		next.g = next.wg.Unweighted()
	}
	return next, quot, err
}

// replayVisits presents levels [from, to) to visit in order, reconstructing
// exactly the Level view an interleaved build would have shown: the
// scratch-aliasing pieces (IntraEdges, the OrigEdge rank tables) are
// recomputed per level from the retained state. Levels below refreshed
// were refreshed under a verified partition; those with an identity
// annotation table are flagged Kept. Runs strictly after commit, so a
// visit error (or panic) can no longer leave the hierarchy inconsistent —
// only the caller's own per-level state is partial.
func (h *Hierarchy) replayVisits(from, to, refreshed int, visit func(*Level) error) error {
	if visit == nil {
		return nil
	}
	e := h.eng
	cfg := e.cfg
	e.rankFor = nil
	for l := from; l < to; l++ {
		st := &h.levels[l]
		lv := Level{
			Index: l, G: st.g, D: st.d, WG: st.wg, WD: st.wd,
			Quot: st.quot, NumQuot: st.numQuot, eng: e, orig: st.orig,
			Kept: l < refreshed && st.orig == nil,
		}
		center := st.center()
		if cfg.NeedIntra {
			lv.IntraEdges = e.collectIntra(st.g, st.orig, center)
		}
		if cfg.NeedEdgeOrig && st.orig != nil {
			e.buildRank(st.g)
		}
		if err := visit(&lv); err != nil {
			return err
		}
	}
	return nil
}

// graphEntering returns the graph entering level l: the retained input
// graph for existing levels, the final graph past the top.
func (h *Hierarchy) graphEntering(l int) levelInput {
	if l < len(h.levels) {
		return h.levels[l].levelInput
	}
	return levelInput{g: h.res.Final, wg: h.res.WFinal}
}

// origEntering returns the annotation table entering level l (nil =
// identity; always nil past the top, where the final graph has no edges).
func (h *Hierarchy) origEntering(l int) []graph.Edge {
	if l < len(h.levels) {
		return h.levels[l].orig
	}
	return nil
}

// dfixG is a deferred d.G pointer swing for a refreshed level: the
// Decomposition object is shared between the live and the staged level
// state, so pointing it at the updated input graph may only happen at
// commit time.
type dfixG struct {
	d *core.Decomposition
	g *graph.Graph
}

// UpdateCtx applies b to the hierarchy's base graph (graph.ApplyBatch, or
// graph.ApplyBatchWeighted on a weighted hierarchy) and re-derives exactly
// the levels whose inputs changed, walking the damage up through the
// quotient maps. ctx (nil means never cancelled) is polled at level and
// partition-round boundaries; each call carries its own, so one
// persistent hierarchy can serve many requests with their own deadlines.
// visit (which may be nil) is invoked, in level order, for every level
// whose observable state changed — re-derived levels AND refreshed levels
// — with exactly the Level view a from-scratch build would present;
// spliced levels are not visited. After UpdateCtx, the Hierarchy and its
// Result are bit-identical to a from-scratch build on the updated graph.
//
// The per-level decision is:
//
//   - effective batch empty and annotations unchanged → splice the level
//     and everything above it (reused verbatim);
//   - core's UnchangedUnder rejects the batch (or the level's graph ran
//     out of edges, or the level is weighted and so has no check yet) →
//     re-derive this level and everything above it;
//   - verified, batch all intra-cluster → refresh stats/intra in place,
//     next level unchanged;
//   - verified, batch touches cut edges → re-run the contraction, diff
//     the quotient CSRs, and propagate the diff as the next level's batch.
//
// UpdateCtx is all-or-nothing: the walk stages every change (copied level
// and stat arrays, deferred pointer fixups) and commits only once the
// whole derivation has succeeded. On cancellation, a contained panic
// (*parallel.PanicError), or any kernel error, UpdateCtx returns a zero
// UpdateStats and the error with the hierarchy, its Result and the engine
// untouched — retrying the same batch is safe. Visits are replayed only
// after commit, so an error from a visit callback leaves the hierarchy
// consistent in its updated state; only the caller's own per-level state
// is partial and should be rebuilt. ErrMaxLevels likewise commits the
// (consistent) truncated hierarchy, exactly as BuildHierarchy does.
func (h *Hierarchy) UpdateCtx(ctx context.Context, b graph.Batch, visit func(*Level) error) (us UpdateStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			us, err = UpdateStats{}, parallel.Recovered(r)
		}
	}()
	base := h.graphEntering(0)
	var cur levelInput
	var ar graph.ApplyResult
	if base.wg != nil {
		cur.wg, ar, err = graph.ApplyBatchWeighted(base.wg, b)
	} else {
		cur.g, ar, err = graph.ApplyBatch(base.g, b)
	}
	if err != nil {
		return UpdateStats{}, err
	}
	if cur.wg != nil {
		cur.g = cur.wg.Unweighted()
	}
	us = UpdateStats{
		DirtyVertices:   len(ar.Dirty),
		InsEdges:        len(ar.Inserted),
		DelEdges:        len(ar.Deleted),
		ReweightedEdges: len(ar.Reweighted),
	}
	if ar.Unchanged() {
		us.Levels = h.res.Levels
		us.Reused = h.res.Levels
		return us, nil
	}

	e := h.eng
	cfg := e.cfg

	// Staged state: struct copies of the level and stat arrays. The walk
	// below mutates only these copies (plus the deferred d.G fixups); the
	// live hierarchy is read, never written, until commit.
	nlv := append([]levelState(nil), h.levels...)
	nst := append([]LevelStat(nil), h.res.Stats...)
	var dfix []dfixG
	final := h.graphEntering(len(h.levels))
	rederived := false
	visitEnd := 0
	var derr error // nil or ErrMaxLevels once staged

	ins, del := ar.Inserted, ar.Deleted
	var origIn []graph.Edge
	annotChanged := false

	for l := 0; ; l++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return UpdateStats{}, cerr
		}
		graphChanged := len(ins)+len(del) > 0
		if l >= len(h.levels) || graphChanged && cur.g.NumEdges() == 0 || cur.wg != nil ||
			graphChanged && !h.levels[l].d.UnchangedUnder(ins, del) {
			// Past the old top (new levels to grow), this level's graph lost
			// its last edge (levels above it disappear), the level is
			// weighted (no fixpoint check yet), or the partition fixpoint did
			// not survive: full re-derivation from here.
			lvls, stats, fin, cerr := e.computeLevels(ctx, l, cur, origIn)
			if cerr != nil && !errors.Is(cerr, ErrMaxLevels) {
				return UpdateStats{}, cerr
			}
			derr = cerr
			nlv = append(nlv[:l], lvls...)
			nst = append(nst[:l], stats...)
			final = fin
			us.Rederived = len(lvls)
			rederived = true
			visitEnd = len(nlv)
			break
		}

		// Partition verified unchanged (or the batch is annotation-only).
		us.Refreshed++
		nlv[l].levelInput = cur
		nlv[l].orig = origIn
		dfix = append(dfix, dfixG{d: nlv[l].d, g: cur.g})
		center := nlv[l].d.Center
		stat := &nst[l]

		allIntra := true
		for _, ed := range ins {
			if center[ed.U] != center[ed.V] {
				allIntra = false
				break
			}
		}
		if allIntra {
			for _, ed := range del {
				if center[ed.U] != center[ed.V] {
					allIntra = false
					break
				}
			}
		}

		var next levelInput
		var nextOrig []graph.Edge
		var nextIns, nextDel []graph.Edge
		nextAnnotChanged := false
		if graphChanged && !allIntra {
			// Cut structure changed: re-run the contraction (no partition!)
			// and diff the next-level graphs to get the next level's batch.
			var quot []uint32
			next, quot, err = e.rebuild(cur, center)
			if err != nil {
				return UpdateStats{}, err
			}
			// The compaction order depends only on the center array, so
			// the numbering is stable; guard the invariant the splice
			// logic stands on.
			if next.g.NumVertices() != nlv[l].numQuot {
				return UpdateStats{}, fmt.Errorf("hier: quotient numbering shifted under a verified partition (level %d: %d -> %d vertices)",
					l, nlv[l].numQuot, next.g.NumVertices())
			}
			nlv[l].quot = quot
			if quot != nil && cfg.NeedEdgeOrig {
				nextOrig = e.annotateContraction(cur.g, origIn, center, quot, next.g)
			}
			stat.CutEdges = e.sc.CutArcs / 2
			oldNext := h.graphEntering(l + 1)
			var equal bool
			nextIns, nextDel, equal = graph.DiffCSR(oldNext.g, next.g)
			if equal {
				next = oldNext // bit-identical; keep the retained pointer
			}
			if cfg.NeedEdgeOrig {
				if old := h.origEntering(l + 1); slices.Equal(nextOrig, old) {
					nextOrig = old
				} else {
					nextAnnotChanged = true
				}
			}
		} else {
			// Intra-only (or annotation-only) change: the cut-edge set is
			// untouched, so the next graph and the annotation
			// representatives are provably identical.
			next = h.graphEntering(l + 1)
			nextOrig = h.origEntering(l + 1)
			if cfg.NeedEdgeOrig && annotChanged && !cfg.Residual {
				// The table entering this level changed, so the values its
				// cut-edge representatives carry may change even though the
				// representatives themselves are fixed.
				if fresh := e.annotateContraction(cur.g, origIn, center, nlv[l].quot, next.g); !slices.Equal(fresh, nextOrig) {
					nextOrig = fresh
					nextAnnotChanged = true
				}
			}
		}
		if graphChanged {
			// The M-dependent stats move (with CutEdges, when the rebuild
			// above re-counted a changed cut set).
			stat.M = cur.g.NumEdges()
			stat.CutFraction = 0
			if stat.M > 0 {
				stat.CutFraction = float64(stat.CutEdges) / float64(stat.M)
			}
		}

		visitEnd = l + 1
		if len(nextIns)+len(nextDel) == 0 && !nextAnnotChanged {
			// Damage absorbed: everything above is reused verbatim.
			us.Reused = h.res.Levels - l - 1
			break
		}
		cur = next
		ins, del = nextIns, nextDel
		origIn = nextOrig
		annotChanged = nextAnnotChanged
	}

	// Commit: land the deferred pointer fixups and install the staged
	// arrays, then — and only then — replay the visits.
	for _, f := range dfix {
		f.d.G = f.g
	}
	h.install(nlv, nst, final)
	if rederived {
		h.maps = nil
	}
	us.Levels = h.res.Levels
	if verr := h.replayVisits(0, visitEnd, us.Refreshed, visit); verr != nil && derr == nil {
		return us, verr
	}
	return us, derr
}
