package lowstretch

import (
	"context"
	"errors"
	"slices"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Incremental is a low-stretch spanning forest maintained under batched
// edge updates. It owns a persistent hier.Hierarchy plus the per-level
// tree-edge segments, so an UpdateCtx only recomputes the segments of levels
// the hierarchy actually re-derived or refreshed — spliced levels keep
// their edges verbatim — and skips the O(n) LCA index rebuild entirely
// when the tree came out unchanged. A rebuild reuses the index's arrays
// and the build scratch this Incremental keeps. The maintained Tree is
// bit-identical to BuildPoolCtx on the updated graph with the same
// parameters. Not safe for concurrent use.
type Incremental struct {
	h    *hier.Hierarchy
	tree *Tree
	// segs[l] holds level l's tree edges in original coordinates, in the
	// order the visit callback emits them.
	segs [][]graph.Edge
	// edgesChanged is set by the capture callback whenever a re-visited
	// level's segment differs from the retained one.
	edgesChanged bool
	// scratch is the index build's working memory, kept for the next
	// rebuild; indexBuilds counts the builds.
	scratch     forestScratch
	indexBuilds int
}

// BuildIncrementalPoolCtx is BuildPoolCtx retaining the hierarchy for
// incremental maintenance: the initial Tree is the one BuildPoolCtx
// returns, and every subsequent UpdateCtx leaves Tree bit-identical to
// BuildPoolCtx on the updated graph. ctx (nil means never cancelled)
// covers the initial build; per-call update deadlines go through
// UpdateCtx.
func BuildIncrementalPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64, workers int, dir core.Direction) (*Incremental, error) {
	if !core.ValidBeta(beta) {
		return nil, core.ErrBeta
	}
	inc := &Incremental{tree: &Tree{G: g}}
	h, err := hier.BuildHierarchy(hier.Config{
		Ctx:          ctx,
		Beta:         beta,
		Seed:         seed,
		Workers:      workers,
		Pool:         pool,
		Direction:    dir,
		NeedEdgeOrig: true,
	}, g, inc.capture)
	if err == hier.ErrMaxLevels {
		return nil, errors.New("lowstretch: contraction failed to converge")
	}
	if err != nil {
		return nil, err
	}
	inc.h = h
	if err := inc.rebuildTree(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Tree returns the maintained spanning forest. The pointer stays valid
// across updates; UpdateCtx mutates it in place.
func (inc *Incremental) Tree() *Tree { return inc.tree }

// Hierarchy exposes the retained decompose-and-contract hierarchy the tree
// is derived from, so query layers (oracle.MembershipOracle, cmd/mpx
// -queries) can export cluster maps from the same build that produced the
// tree. Mutating it directly (its own UpdateCtx) desynchronizes the Tree;
// go through Incremental.UpdateCtx instead.
func (inc *Incremental) Hierarchy() *hier.Hierarchy { return inc.h }

// UpdateCtx applies b to the underlying graph and re-derives exactly the
// hierarchy levels whose inputs changed, splicing the retained tree-edge
// segments of every reused level. The LCA index is rebuilt, in place, only
// when the edge set actually moved. ctx (nil means never cancelled) covers
// this call only. A cancellation or contained panic that strikes before the
// hierarchy commits leaves the whole structure untouched (retry the batch
// freely — the underlying Hierarchy.UpdateCtx is all-or-nothing and no
// visits have been delivered); an error after commit leaves the structure
// inconsistent — discard it.
func (inc *Incremental) UpdateCtx(ctx context.Context, b graph.Batch) (hier.UpdateStats, error) {
	inc.edgesChanged = false
	us, err := inc.h.UpdateCtx(ctx, b, inc.capture)
	if err == hier.ErrMaxLevels {
		return us, errors.New("lowstretch: contraction failed to converge")
	}
	if err != nil {
		return us, err
	}
	if levels := inc.h.Levels(); len(inc.segs) > levels {
		inc.segs = inc.segs[:levels]
		inc.edgesChanged = true
	}
	return us, inc.rebuildTree()
}

// capture recomputes one level's tree-edge segment — the visit callback for
// both the initial build and every update. A Kept level's segment is a
// function of its unchanged Parent array and the identity OrigEdge map,
// so the retained segment is kept as is, without the O(n) rebuild and
// comparison.
func (inc *Incremental) capture(lv *hier.Level) error {
	if lv.Kept && lv.Index < len(inc.segs) {
		return nil
	}
	for len(inc.segs) <= lv.Index {
		inc.segs = append(inc.segs, nil)
	}
	seg := appendTreeEdges(nil, lv, lv.D.Parent)
	if !slices.Equal(seg, inc.segs[lv.Index]) {
		inc.edgesChanged = true
	}
	inc.segs[lv.Index] = seg
	return nil
}

// rebuildTree refreshes the maintained Tree from the hierarchy and the
// retained segments: graph/stats pointers always, the flattened edge list
// and the LCA index only when a segment moved (or on the first call).
func (inc *Incremental) rebuildTree() error {
	t := inc.tree
	t.G = inc.h.Graph()
	res := inc.h.Result()
	t.Levels = res.Levels
	t.Stats = res.Stats
	if !inc.edgesChanged && inc.indexBuilds > 0 {
		return nil
	}
	total := 0
	for _, seg := range inc.segs {
		total += len(seg)
	}
	t.Edges = t.Edges[:0]
	if cap(t.Edges) < total {
		t.Edges = make([]graph.Edge, 0, total)
	}
	for _, seg := range inc.segs {
		t.Edges = append(t.Edges, seg...)
	}
	inc.indexBuilds++
	return t.index(&inc.scratch)
}
