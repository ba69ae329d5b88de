package embedding

import (
	"context"
	"slices"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// Incremental is a tree-metric embedding maintained under batched edge
// updates. Unlike the contraction hierarchies, every embedding level
// partitions the SAME base graph (at a halving diameter target), so the
// damage model is per-level independent: a level re-partitions only when
// core's O(batch) fixpoint check rejects the batch, and re-refines its
// piece assignment only when its own partition or the parent level's
// assignment moved. The maintained Tree is bit-identical to BuildPoolCtx on
// the updated graph with the same parameters — with diam0 pinned at build
// time: the initial diameter target is resolved once (the 0 default reads
// the pseudo-diameter of the ORIGINAL graph) and kept across updates, so
// compare against BuildPoolCtx with that explicit diam0. Not safe for
// concurrent use.
type Incremental struct {
	t       *Tree
	parts   []levelPartition
	pool    *parallel.Pool
	workers int
	dir     core.Direction
	seed    uint64
	scratch *hier.RefineScratch
}

// UpdateStats reports how much of the embedding an UpdateCtx reused.
type UpdateStats struct {
	// Levels is the number of partition levels (the leaf level excluded).
	Levels int
	// Repartitioned counts levels whose Partition was re-run.
	Repartitioned int
	// Refined counts levels whose partition was verified unchanged but
	// whose piece refinement re-ran because the parent assignment moved.
	Refined int
	// Reused counts levels that skipped both.
	Reused int
}

// BuildIncrementalPoolCtx is BuildPoolCtx retaining the per-level
// decompositions for incremental maintenance. ctx (nil means never
// cancelled) covers the initial build; per-call update deadlines go
// through UpdateCtx.
func BuildIncrementalPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, diam0 float64, seed uint64, workers int, dir core.Direction) (*Incremental, error) {
	diam0 = resolveDiam0(g, diam0)
	t, parts, err := buildTree(ctx, pool, g, diam0, seed, workers, dir, true)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		t:       t,
		parts:   parts,
		pool:    pool,
		workers: workers,
		dir:     dir,
		seed:    seed,
		scratch: &hier.RefineScratch{},
	}, nil
}

// Tree returns the maintained embedding. The pointer stays valid across
// updates; a successful UpdateCtx updates it in place.
func (inc *Incremental) Tree() *Tree { return inc.t }

// UpdateCtx applies b to the base graph and refreshes the embedding level
// by level: each level re-partitions only if the batch broke its
// fixpoint, re-refines only if its inputs moved (refinement stops
// propagating as soon as a recomputed assignment comes out unchanged), and
// always refreshes its M-dependent stats. ctx (nil means never cancelled)
// is polled at every level boundary and inside each re-partition.
// UpdateCtx is all-or-nothing: it stages the new levels, assignments and
// stats and commits them only once every level has succeeded. On
// cancellation, a contained panic (*parallel.PanicError), or any kernel
// error, it returns a zero UpdateStats and the error with the embedding
// untouched, so retrying the same batch is safe.
func (inc *Incremental) UpdateCtx(ctx context.Context, b graph.Batch) (us UpdateStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			us, err = UpdateStats{}, parallel.Recovered(r)
		}
	}()
	t := inc.t
	newG, ar, err := graph.ApplyBatch(t.G, b)
	if err != nil {
		return UpdateStats{}, err
	}
	us = UpdateStats{Levels: len(inc.parts)}
	if ar.Unchanged() {
		us.Reused = len(inc.parts)
		return us, nil
	}
	ins, del := ar.Inserted, ar.Deleted
	parts := slices.Clone(inc.parts)
	assignment := slices.Clone(t.assignment)
	stats := slices.Clone(t.Stats)
	// A verified level keeps its decomposition, which the live embedding
	// shares; its graph moves to newG only at commit.
	var kept []*core.Decomposition
	assignChanged := false
	for l := range parts {
		if err := ctxErr(ctx); err != nil {
			return UpdateStats{}, err
		}
		lp := &parts[l]
		verified := lp.d.UnchangedUnder(ins, del)
		if verified {
			kept = append(kept, lp.d)
		} else {
			d, err := core.Partition(newG, lp.beta, core.Options{
				Ctx:       ctx,
				Seed:      xrand.Mix(inc.seed, uint64(l)),
				Workers:   inc.workers,
				Pool:      inc.pool,
				Direction: inc.dir,
			})
			if err != nil {
				return UpdateStats{}, err
			}
			lp.d = d
			us.Repartitioned++
		}
		if !verified || assignChanged {
			var parent []uint32
			if l > 0 {
				parent = assignment[l-1]
			}
			assign := refine(inc.pool, inc.workers, parent, lp.d.Center, inc.scratch)
			if slices.Equal(assign, assignment[l]) {
				assignChanged = false // converged; stop propagating
			} else {
				assignment[l] = assign
				assignChanged = true
			}
			if verified {
				us.Refined++
			}
		} else {
			us.Reused++
		}
		// Stats depend on the edge set, so they always refresh.
		st := &stats[l]
		st.M = newG.NumEdges()
		st.Clusters = lp.d.NumClusters()
		st.CutEdges = graph.CutEdgesPool(inc.pool, inc.workers, newG, lp.d.Center)
		st.CutFraction = 0
		if st.M > 0 {
			st.CutFraction = float64(st.CutEdges) / float64(st.M)
		}
	}
	for _, d := range kept {
		d.G = newG
	}
	inc.parts, t.assignment, t.Stats, t.G = parts, assignment, stats, newG
	return us, nil
}
