package blocks

import (
	"context"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Incremental is a block decomposition maintained under batched edge
// updates: a persistent residual-mode hier.Hierarchy plus one retained
// Block per level (nil where the level contributed no intra edges).
// UpdateCtx recomputes blocks only for levels the hierarchy re-derived or
// refreshed; spliced levels keep their Block verbatim. The maintained
// Decomposition is bit-identical to DecomposePoolCtx on the updated graph
// with the same parameters (including the same explicit maxIters — pass it
// explicitly when comparing, since the 0 default is resolved against the
// graph handed to the initial build). Not safe for concurrent use.
type Incremental struct {
	h          *hier.Hierarchy
	dec        *Decomposition
	pool       *parallel.Pool
	workers    int
	maxIters   int
	centerSeen *parallel.Bitset
	// perLevel[l] is level l's block, nil when the level had no intra
	// edges; Blocks is rebuilt from it after every update.
	perLevel []*Block
}

// BuildIncrementalPoolCtx is DecomposePoolCtx retaining the hierarchy for
// incremental maintenance. ctx (nil means never cancelled) covers the
// initial build; per-call update deadlines go through UpdateCtx.
func BuildIncrementalPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64, maxIters, workers int, dir core.Direction) (*Incremental, error) {
	if beta <= 0 || beta >= 1 {
		return nil, core.ErrBeta
	}
	if maxIters <= 0 {
		maxIters = 8
		for m := g.NumEdges(); m > 0; m >>= 1 {
			maxIters += 4
		}
	}
	inc := &Incremental{
		dec:        &Decomposition{G: g, Beta: beta},
		pool:       pool,
		workers:    workers,
		maxIters:   maxIters,
		centerSeen: parallel.NewBitset(g.NumVertices()),
	}
	h, err := hier.BuildHierarchy(hier.Config{
		Ctx:       ctx,
		Beta:      beta,
		Seed:      seed,
		Workers:   workers,
		Pool:      pool,
		Direction: dir,
		MaxLevels: maxIters,
		Residual:  true,
		NeedIntra: true,
	}, g, inc.capture)
	if err == hier.ErrMaxLevels {
		return nil, errUndrained(maxIters)
	}
	if err != nil {
		return nil, err
	}
	inc.h = h
	inc.rebuildBlocks()
	return inc, nil
}

// Decomposition returns the maintained block decomposition. The pointer
// stays valid across updates; UpdateCtx mutates it in place.
func (inc *Incremental) Decomposition() *Decomposition { return inc.dec }

// UpdateCtx applies b to the underlying graph, re-deriving exactly the
// residual levels whose inputs changed and recomputing only their blocks.
// ctx (nil means never cancelled) covers this call only. A cancellation or
// contained panic before the hierarchy commits leaves the structure
// untouched and the batch safely retryable; an error after commit leaves
// it inconsistent — discard it.
func (inc *Incremental) UpdateCtx(ctx context.Context, b graph.Batch) (hier.UpdateStats, error) {
	us, err := inc.h.UpdateCtx(ctx, b, inc.capture)
	if err == hier.ErrMaxLevels {
		return us, errUndrained(inc.maxIters)
	}
	if err != nil {
		return us, err
	}
	if levels := inc.h.Levels(); len(inc.perLevel) > levels {
		inc.perLevel = inc.perLevel[:levels]
	}
	inc.rebuildBlocks()
	return us, nil
}

// capture recomputes one level's block — the visit callback for both the
// initial build and every update.
func (inc *Incremental) capture(lv *hier.Level) error {
	for len(inc.perLevel) <= lv.Index {
		inc.perLevel = append(inc.perLevel, nil)
	}
	if len(lv.IntraEdges) == 0 {
		inc.perLevel[lv.Index] = nil
		return nil
	}
	inc.perLevel[lv.Index] = &Block{
		Edges:              append([]graph.Edge(nil), lv.IntraEdges...),
		MaxComponentRadius: lv.D.MaxRadius(),
		Clusters:           distinctCenters(inc.pool, inc.workers, lv.IntraEdges, lv.D.Center, inc.centerSeen),
	}
	return nil
}

func (inc *Incremental) rebuildBlocks() {
	inc.dec.G = inc.h.Graph()
	inc.dec.Stats = inc.h.Result().Stats
	inc.dec.Blocks = inc.dec.Blocks[:0]
	for _, blk := range inc.perLevel {
		if blk != nil {
			inc.dec.Blocks = append(inc.dec.Blocks, *blk)
		}
	}
}
