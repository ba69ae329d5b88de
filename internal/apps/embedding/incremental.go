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
// updates; UpdateCtx mutates it in place.
func (inc *Incremental) Tree() *Tree { return inc.t }

// UpdateCtx applies b to the base graph and refreshes the embedding level
// by level: each level re-partitions only if the batch broke its
// fixpoint, re-refines only if its inputs moved (refinement stops
// propagating as soon as a recomputed assignment comes out unchanged), and
// always refreshes its M-dependent stats. ctx (nil means never cancelled)
// is polled at every level boundary and inside each re-partition. An
// error leaves the structure inconsistent; discard it. Unlike the
// contraction hierarchies, the embedding refreshes its levels in place, so
// this includes a cancellation that strikes after the first level
// committed.
func (inc *Incremental) UpdateCtx(ctx context.Context, b graph.Batch) (UpdateStats, error) {
	t := inc.t
	newG, ar, err := graph.ApplyBatch(t.G, b)
	if err != nil {
		return UpdateStats{}, err
	}
	us := UpdateStats{Levels: len(inc.parts)}
	if ar.Unchanged() {
		us.Reused = len(inc.parts)
		return us, nil
	}
	ins, del := ar.Inserted, ar.Deleted
	assignChanged := false
	for l := range inc.parts {
		if err := ctxErr(ctx); err != nil {
			return us, err
		}
		lp := &inc.parts[l]
		verified := lp.d.UnchangedUnder(ins, del)
		if verified {
			lp.d.G = newG
		} else {
			d, err := core.Partition(newG, lp.beta, core.Options{
				Ctx:       ctx,
				Seed:      xrand.Mix(inc.seed, uint64(l)),
				Workers:   inc.workers,
				Pool:      inc.pool,
				Direction: inc.dir,
			})
			if err != nil {
				return us, err
			}
			lp.d = d
			us.Repartitioned++
		}
		if !verified || assignChanged {
			assign := t.refine(inc.pool, inc.workers, l, lp.d.Center, inc.scratch)
			if slices.Equal(assign, t.assignment[l]) {
				assignChanged = false // converged; stop propagating
			} else {
				t.assignment[l] = assign
				assignChanged = true
			}
			if verified {
				us.Refined++
			}
		} else {
			us.Reused++
		}
		// Stats depend on the edge set, so they always refresh.
		st := &t.Stats[l]
		st.M = newG.NumEdges()
		st.Clusters = lp.d.NumClusters()
		st.CutEdges = graph.CutEdgesPool(inc.pool, inc.workers, newG, lp.d.Center)
		st.CutFraction = 0
		if st.M > 0 {
			st.CutFraction = float64(st.CutEdges) / float64(st.M)
		}
	}
	t.G = newG
	return us, nil
}
