package hier

import (
	"math"
	"slices"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

func sameGraph(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	ao, bo := a.Offsets(), b.Offsets()
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	aa, ba := a.Adjacency(), b.Adjacency()
	if len(aa) != len(ba) {
		return false
	}
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	return true
}

func sameDecomp(a, b *core.Decomposition) bool {
	if len(a.Center) != len(b.Center) || a.Rounds != b.Rounds ||
		math.Float64bits(a.DeltaMax) != math.Float64bits(b.DeltaMax) {
		return false
	}
	for i := range a.Center {
		if a.Center[i] != b.Center[i] || a.Dist[i] != b.Dist[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

func sameWeightedDecomp(a, b *core.WeightedDecomposition) bool {
	if len(a.Center) != len(b.Center) || a.Rounds != b.Rounds ||
		math.Float64bits(a.DeltaMax) != math.Float64bits(b.DeltaMax) {
		return false
	}
	for i := range a.Center {
		if a.Center[i] != b.Center[i] || a.Parent[i] != b.Parent[i] ||
			math.Float64bits(a.Dist[i]) != math.Float64bits(b.Dist[i]) {
			return false
		}
	}
	return true
}

func sameWeightedGraph(a, b *graph.WeightedGraph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	ae, be := a.WeightedEdges(), b.WeightedEdges()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i].U != be[i].U || ae[i].V != be[i].V ||
			math.Float64bits(ae[i].W) != math.Float64bits(be[i].W) {
			return false
		}
	}
	return true
}

// requireHierIdentical compares an updated hierarchy against a freshly
// built one on the same (updated) graph: Result scalars, per-level stats,
// final graph (weighted too), and every retained level (input graph,
// decomposition, quotient map, annotation table) must be bit-identical.
func requireHierIdentical(t *testing.T, tag string, got, want *Hierarchy) {
	t.Helper()
	gr, wr := got.res, want.res
	if gr.Levels != wr.Levels {
		t.Fatalf("%s: Levels = %d, want %d", tag, gr.Levels, wr.Levels)
	}
	for l := range wr.Stats {
		if gr.Stats[l] != wr.Stats[l] {
			t.Fatalf("%s: Stats[%d] = %+v, want %+v", tag, l, gr.Stats[l], wr.Stats[l])
		}
	}
	if !sameGraph(gr.Final, wr.Final) {
		t.Fatalf("%s: Final graph differs", tag)
	}
	if (gr.WFinal == nil) != (wr.WFinal == nil) || gr.WFinal != nil && !sameWeightedGraph(gr.WFinal, wr.WFinal) {
		t.Fatalf("%s: WFinal graph differs", tag)
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%s: retained %d levels, want %d", tag, len(got.levels), len(want.levels))
	}
	for l := range want.levels {
		gs, ws := &got.levels[l], &want.levels[l]
		if !sameGraph(gs.g, ws.g) {
			t.Fatalf("%s: level %d input graph differs", tag, l)
		}
		if (gs.d == nil) != (ws.d == nil) || (gs.wd == nil) != (ws.wd == nil) ||
			(gs.wg == nil) != (ws.wg == nil) {
			t.Fatalf("%s: level %d weighted/unweighted shape differs", tag, l)
		}
		if gs.d != nil && !sameDecomp(gs.d, ws.d) {
			t.Fatalf("%s: level %d decomposition differs", tag, l)
		}
		if gs.wd != nil && !sameWeightedDecomp(gs.wd, ws.wd) {
			t.Fatalf("%s: level %d weighted decomposition differs", tag, l)
		}
		if gs.wg != nil && !sameWeightedGraph(gs.wg, ws.wg) {
			t.Fatalf("%s: level %d weighted input graph differs", tag, l)
		}
		if (gs.quot == nil) != (ws.quot == nil) || gs.numQuot != ws.numQuot {
			t.Fatalf("%s: level %d quotient shape differs", tag, l)
		}
		for v := range ws.quot {
			if gs.quot[v] != ws.quot[v] {
				t.Fatalf("%s: level %d quot[%d] differs", tag, l, v)
			}
		}
		if !slices.Equal(gs.orig, ws.orig) {
			t.Fatalf("%s: level %d annotation table differs (len %d vs %d)", tag, l, len(gs.orig), len(ws.orig))
		}
	}
}

func randomHierBatch(g *graph.Graph, seed uint64, nIns, nDel int) graph.Batch {
	n := uint64(g.NumVertices())
	var b graph.Batch
	for i := 0; i < nIns; i++ {
		u := uint32(xrand.Mix(seed, uint64(i)*2+1) % n)
		v := uint32(xrand.Mix(seed, uint64(i)*2+2) % n)
		b.Insert = append(b.Insert, graph.Edge{U: u, V: v})
	}
	edges := g.Edges()
	for i := 0; i < nDel && len(edges) > 0; i++ {
		b.Delete = append(b.Delete, edges[xrand.Mix(seed, 0xde1+uint64(i))%uint64(len(edges))])
	}
	return b
}

// TestHierarchyUpdateBitIdentical is the golden incremental determinism
// suite: over contract and residual configs, workers 1/2/8 and
// push/pull/auto, a chain of random update batches applied through
// Hierarchy.UpdateCtx must leave the hierarchy bit-identical to a
// from-scratch build on the updated graph at every step.
func TestHierarchyUpdateBitIdentical(t *testing.T) {
	dirs := []core.Direction{core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"contract", Config{Beta: 0.22, Seed: 41, NeedEdgeOrig: true, NeedIntra: true}},
		{"residual", Config{Beta: 0.45, Seed: 17, Residual: true, NeedIntra: true, MaxLevels: 24}},
	}
	base := graph.Grid2D(19, 16)
	for _, tc := range configs {
		for _, w := range []int{1, 2, 8} {
			for _, dir := range dirs {
				cfg := tc.cfg
				cfg.Workers = w
				cfg.Direction = dir
				h, err := BuildHierarchy(cfg, base, nil)
				if err != nil {
					t.Fatalf("%s w=%d dir=%v: build: %v", tc.name, w, dir, err)
				}
				cur := base
				for step := uint64(0); step < 4; step++ {
					b := randomHierBatch(cur, 0xabc*step+uint64(w)+uint64(dir)<<4, 8, 6)
					us, err := h.UpdateCtx(nil, b, nil)
					if err != nil {
						t.Fatalf("%s w=%d dir=%v step %d: update: %v", tc.name, w, dir, step, err)
					}
					cur, _, err = graph.ApplyBatch(cur, b)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := BuildHierarchy(cfg, cur, nil)
					if err != nil {
						t.Fatalf("%s w=%d dir=%v step %d: fresh build: %v", tc.name, w, dir, step, err)
					}
					if us.Levels != fresh.Levels() {
						t.Fatalf("%s w=%d dir=%v step %d: stats report %d levels, fresh has %d",
							tc.name, w, dir, step, us.Levels, fresh.Levels())
					}
					if us.Rederived+us.Refreshed+us.Reused > us.Levels+us.Rederived {
						t.Fatalf("%s step %d: inconsistent reuse stats %+v", tc.name, step, us)
					}
					requireHierIdentical(t, tc.name, h, fresh)
				}
			}
		}
	}
}

// levelView is the per-level app view a visit captures: parent tree edges
// in original coordinates plus a copy of the intra list.
type levelView struct {
	tree  []graph.Edge
	intra []graph.Edge
}

// captureView returns lv's levelView.
func captureView(lv *Level) levelView {
	var view levelView
	var parent []uint32
	if lv.WD != nil {
		parent = lv.WD.Parent
	} else {
		parent = lv.D.Parent
	}
	for v, p := range parent {
		if p != uint32(v) {
			view.tree = append(view.tree, lv.OrigEdge(uint32(v), p))
		}
	}
	view.intra = append([]graph.Edge(nil), lv.IntraEdges...)
	return view
}

// TestHierarchyUpdateVisitMatchesFresh checks the visit contract: levels
// visited during UpdateCtx present exactly the view a fresh build presents
// (tree edges via OrigEdge, intra lists), and unvisited levels' previously
// captured views are still the fresh ones. Views maintained as lowstretch
// maintains its segments, keeping the previous tree view of a Kept level,
// must be the fresh ones too.
func TestHierarchyUpdateVisitMatchesFresh(t *testing.T) {
	base := graph.Grid2D(14, 15)
	cfg := Config{Beta: 0.3, Seed: 7, Workers: 4, NeedEdgeOrig: true, NeedIntra: true}

	// keptViews is maintained as lowstretch maintains its tree segments:
	// on a Kept level the update visit keeps the previous tree view.
	views, keptViews := map[int]levelView{}, map[int]levelView{}
	keptVisits := 0
	h, err := BuildHierarchy(cfg, base, func(lv *Level) error {
		if lv.Kept {
			t.Fatalf("build visit flagged level %d Kept", lv.Index)
		}
		views[lv.Index] = captureView(lv)
		keptViews[lv.Index] = captureView(lv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := uint64(0); step < 4; step++ {
		var b graph.Batch
		if step < 3 {
			b = randomHierBatch(cur, 0x5e7+step, 6, 5)
		} else {
			// Delete an intra non-tree edge of level 0: the update refreshes
			// level 0 under a verified partition, so it must be Kept.
			b = graph.Batch{Delete: []graph.Edge{intraNonTreeEdge(t, cur, h.levels[0].d)}}
		}
		if _, err := h.UpdateCtx(nil, b, func(lv *Level) error {
			view := captureView(lv)
			views[lv.Index] = view
			if prev, ok := keptViews[lv.Index]; lv.Kept && ok {
				keptVisits++
				view.tree = prev.tree
			}
			keptViews[lv.Index] = view
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		dropViewsAbove(views, h.Levels()) // hierarchy shrank; stale views drop
		dropViewsAbove(keptViews, h.Levels())
		cur, _, err = graph.ApplyBatch(cur, b)
		if err != nil {
			t.Fatal(err)
		}
		freshViews := map[int]levelView{}
		if _, err := BuildHierarchy(cfg, cur, func(lv *Level) error {
			freshViews[lv.Index] = captureView(lv)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(views) != len(freshViews) {
			t.Fatalf("step %d: %d levels of views, fresh has %d", step, len(views), len(freshViews))
		}
		for l, fv := range freshViews {
			gv := views[l]
			if !slices.Equal(gv.tree, fv.tree) {
				t.Fatalf("step %d level %d: tree edges differ", step, l)
			}
			if !slices.Equal(gv.intra, fv.intra) {
				t.Fatalf("step %d level %d: intra edges differ", step, l)
			}
			kv := keptViews[l]
			if !slices.Equal(kv.tree, fv.tree) {
				t.Fatalf("step %d level %d: tree view kept on a Kept level differs from the fresh build", step, l)
			}
			if !slices.Equal(kv.intra, fv.intra) {
				t.Fatalf("step %d level %d: intra edges differ (kept views)", step, l)
			}
		}
	}
	if keptVisits == 0 {
		t.Fatal("no update visit was flagged Kept")
	}
}

// dropViewsAbove deletes the views of levels >= levels.
func dropViewsAbove(views map[int]levelView, levels int) {
	for l := range views {
		if l >= levels {
			delete(views, l)
		}
	}
}

// intraNonTreeEdge returns an edge of g inside one cluster of d that is in
// no cluster's BFS tree: deleting it passes d's UnchangedUnder.
func intraNonTreeEdge(t *testing.T, g *graph.Graph, d *core.Decomposition) graph.Edge {
	t.Helper()
	for _, e := range g.Edges() {
		if d.Center[e.U] == d.Center[e.V] && d.Parent[e.U] != e.V && d.Parent[e.V] != e.U {
			return e
		}
	}
	t.Fatal("no intra non-tree edge")
	return graph.Edge{}
}

// TestHierarchyUpdateReuseStats pins the damage-frontier accounting on
// scenarios with known reuse: a no-op batch reuses everything; deleting a
// single intra non-tree edge refreshes only level 0; a batch failing the
// fixpoint check re-derives from level 0.
func TestHierarchyUpdateReuseStats(t *testing.T) {
	base := graph.Grid2D(40, 40)
	cfg := Config{Beta: 0.12, Seed: 5, Workers: 4, NeedEdgeOrig: true}
	h, err := BuildHierarchy(cfg, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	levels := h.Levels()
	if levels < 2 {
		t.Fatalf("want a multi-level hierarchy, got %d levels", levels)
	}

	// No-op batch: insert an existing edge.
	us, err := h.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: 1}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Reused != levels || us.Rederived != 0 || us.Refreshed != 0 {
		t.Fatalf("no-op batch: %+v", us)
	}

	// Single intra non-tree edge delete: level 0 refreshes, everything
	// above splices.
	d0 := h.levels[0].d
	var intraNonTree *graph.Edge
	for _, e := range h.Graph().Edges() {
		if d0.Center[e.U] == d0.Center[e.V] && d0.Parent[e.U] != e.V && d0.Parent[e.V] != e.U {
			e := e
			intraNonTree = &e
			break
		}
	}
	if intraNonTree == nil {
		t.Fatal("no intra non-tree edge found")
	}
	us, err = h.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{*intraNonTree}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Rederived != 0 || us.Refreshed != 1 || us.Reused != levels-1 {
		t.Fatalf("intra delete: %+v, want rederived=0 refreshed=1 reused=%d", us, levels-1)
	}

	// Deleting a tree (support) edge fails the fixpoint check at level 0:
	// everything re-derives.
	var treeEdge *graph.Edge
	d0 = h.levels[0].d
	for _, e := range h.Graph().Edges() {
		if d0.Parent[e.U] == e.V || d0.Parent[e.V] == e.U {
			e := e
			treeEdge = &e
			break
		}
	}
	if treeEdge == nil {
		t.Fatal("no tree edge found")
	}
	us, err = h.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{*treeEdge}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Refreshed != 0 || us.Reused != 0 || us.Rederived != us.Levels {
		t.Fatalf("tree delete: %+v, want full re-derivation", us)
	}
}

// TestHierarchyUpdateGrowShrink drives the level count both ways: deleting
// every edge empties the hierarchy, re-inserting them rebuilds it — both
// through UpdateCtx, both bit-identical to fresh builds.
func TestHierarchyUpdateGrowShrink(t *testing.T) {
	base := graph.Grid2D(9, 9)
	cfg := Config{Beta: 0.3, Seed: 2, Workers: 2, NeedEdgeOrig: true}
	h, err := BuildHierarchy(cfg, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := base.Edges()
	us, err := h.UpdateCtx(nil, graph.Batch{Delete: all}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Levels != 0 || h.Levels() != 0 {
		t.Fatalf("deleting all edges left %d levels", h.Levels())
	}
	empty, err := graph.FromEdgesDedup(base.NumVertices(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildHierarchy(cfg, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireHierIdentical(t, "shrink", h, fresh)

	us, err = h.UpdateCtx(nil, graph.Batch{Insert: all}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Levels == 0 || us.Rederived != us.Levels {
		t.Fatalf("regrow: %+v", us)
	}
	fresh, err = BuildHierarchy(cfg, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireHierIdentical(t, "grow", h, fresh)
}

// TestHierarchyUpdateWeighted checks the conservative weighted path:
// updates (including pure reweights) re-derive everything and land
// bit-identical to a fresh weighted build.
func TestHierarchyUpdateWeighted(t *testing.T) {
	base := graph.RandomWeights(graph.Grid2D(12, 11), 1, 8, 3)
	cfg := Config{
		// Geometric AKPW-style schedule so the weighted hierarchy converges.
		WBetaAt:      func(level int) float64 { return 0.3 / float64(uint64(1)<<uint(level)) },
		Seed:         6,
		Workers:      4,
		NeedEdgeOrig: true,
	}
	h, err := BuildWeightedHierarchy(cfg, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Batch{
		Insert:  []graph.Edge{{U: 0, V: 130}, {U: 0, V: 1}},
		InsertW: []float64{2.5, 7.75},
		Delete:  []graph.Edge{{U: 11, V: 12}},
	}
	us, err := h.UpdateCtx(nil, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Rederived != us.Levels || us.Reused != 0 {
		t.Fatalf("weighted update must re-derive everything: %+v", us)
	}
	updated, _, err := graph.ApplyBatchWeighted(base, b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildWeightedHierarchy(cfg, updated, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireHierIdentical(t, "weighted", h, fresh)
	we := h.WeightedGraph().WeightedEdges()
	fe := fresh.WeightedGraph().WeightedEdges()
	if len(we) != len(fe) {
		t.Fatalf("weighted edge count %d vs %d", len(we), len(fe))
	}
	for i := range we {
		if we[i].U != fe[i].U || we[i].V != fe[i].V ||
			math.Float64bits(we[i].W) != math.Float64bits(fe[i].W) {
			t.Fatalf("weighted edge %d differs: %+v vs %+v", i, we[i], fe[i])
		}
	}

	// A pure no-op (re-upsert of identical bits) reuses everything.
	w01, _ := h.WeightedGraph().Weight(0, 1)
	us, err = h.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: 1}}, InsertW: []float64{w01}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Reused != us.Levels || us.Rederived != 0 {
		t.Fatalf("weighted no-op: %+v", us)
	}
}
