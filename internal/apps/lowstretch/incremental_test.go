package lowstretch

import (
	"slices"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

func treesIdentical(t *testing.T, tag string, got, want *Tree) {
	t.Helper()
	if got.Levels != want.Levels {
		t.Fatalf("%s: Levels = %d, want %d", tag, got.Levels, want.Levels)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d tree edges, want %d", tag, len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", tag, i, got.Edges[i], want.Edges[i])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d stats, want %d", tag, len(got.Stats), len(want.Stats))
	}
	for l := range want.Stats {
		if got.Stats[l] != want.Stats[l] {
			t.Fatalf("%s: Stats[%d] = %+v, want %+v", tag, l, got.Stats[l], want.Stats[l])
		}
	}
	// The derived index must be the same arrays, however a rebuild reused
	// them, and answer identically: a stretch summary.
	if !slices.Equal(got.pre, want.pre) || !slices.Equal(got.key, want.key) ||
		!slices.Equal(got.mask, want.mask) || !slices.Equal(got.table, want.table) {
		t.Fatalf("%s: index arrays differ", tag)
	}
	if gs, ws := got.Stretch(), want.Stretch(); gs != ws {
		t.Fatalf("%s: stretch %+v, want %+v", tag, gs, ws)
	}
}

// TestIncrementalMatchesRebuild drives a chain of random batches through
// Incremental.UpdateCtx and requires the maintained Tree to be
// bit-identical to BuildPoolCtx on the updated graph at every step.
func TestIncrementalMatchesRebuild(t *testing.T) {
	base := graph.Grid2D(18, 15)
	const beta, seed = 0.25, 9
	for _, w := range []int{1, 4} {
		inc, err := BuildIncrementalPoolCtx(nil, nil, base, beta, seed, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		fresh0, err := BuildPoolCtx(nil, nil, base, beta, seed, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		treesIdentical(t, "initial", inc.Tree(), fresh0)

		cur := base
		for step := uint64(0); step < 4; step++ {
			var b graph.Batch
			n := uint64(cur.NumVertices())
			for i := 0; i < 7; i++ {
				b.Insert = append(b.Insert, graph.Edge{
					U: uint32(xrand.Mix(step, uint64(i)*2+1) % n),
					V: uint32(xrand.Mix(step, uint64(i)*2+2) % n),
				})
			}
			edges := cur.Edges()
			for i := 0; i < 5; i++ {
				b.Delete = append(b.Delete, edges[xrand.Mix(step, 0xb10c+uint64(i))%uint64(len(edges))])
			}
			if _, err := inc.UpdateCtx(nil, b); err != nil {
				t.Fatalf("w=%d step %d: %v", w, step, err)
			}
			cur, _, err = graph.ApplyBatch(cur, b)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildPoolCtx(nil, nil, cur, beta, seed, w, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			treesIdentical(t, "updated", inc.Tree(), fresh)
		}
	}
}

// TestIncrementalSkipsIndexRebuild checks the fast path: an update that
// provably leaves the forest unchanged (deleting an intra non-tree edge)
// must not rebuild the LCA index, and a no-op batch must reuse every level.
// A rebuild reuses the index's arrays, so the test counts index builds
// rather than watching an address, and a tree-changing batch must move the
// count by exactly one.
func TestIncrementalSkipsIndexRebuild(t *testing.T) {
	base := graph.Grid2D(25, 24)
	inc, err := BuildIncrementalPoolCtx(nil, nil, base, 0.2, 4, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	tr := inc.Tree()
	if inc.indexBuilds != 1 {
		t.Fatalf("the initial build ran %d index builds, want 1", inc.indexBuilds)
	}

	us, err := inc.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if us.Reused != us.Levels || us.Refreshed+us.Rederived != 0 {
		t.Fatalf("no-op batch: %+v", us)
	}
	if inc.indexBuilds != 1 {
		t.Fatal("no-op batch rebuilt the index")
	}

	// An intra non-tree edge is in no cluster BFS tree and doesn't touch
	// the cut set: deleting it refreshes level 0 but leaves every tree
	// segment — and therefore the index — untouched. Recover level 0's
	// centers by replaying its partition (same seed derivation as the
	// hierarchy engine).
	d0, err := core.Partition(base, 0.2, core.Options{
		Seed: xrand.Mix(4, 0), Workers: 2, Direction: core.DirectionAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	var target *graph.Edge
	for _, e := range base.Edges() {
		if d0.Center[e.U] == d0.Center[e.V] && d0.Parent[e.U] != e.V && d0.Parent[e.V] != e.U {
			e := e
			target = &e
			break
		}
	}
	if target == nil {
		t.Fatal("no intra non-tree edge found")
	}
	seg0 := inc.segs[0]
	us, err = inc.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{*target}})
	if err != nil {
		t.Fatal(err)
	}
	if us.Rederived != 0 {
		t.Fatalf("non-tree delete re-derived levels: %+v", us)
	}
	if inc.indexBuilds != 1 {
		t.Fatal("unchanged forest rebuilt the index")
	}
	// Level 0 was refreshed with its partition verified and OrigEdge the
	// identity, so it is Kept: its segment is the same slice, not a rebuilt
	// copy.
	if len(inc.segs[0]) == 0 || &inc.segs[0][0] != &seg0[0] {
		t.Fatal("Kept level 0 rebuilt its tree segment")
	}
	updated, _, err := graph.ApplyBatch(base, graph.Batch{Delete: []graph.Edge{*target}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildPoolCtx(nil, nil, updated, 0.2, 4, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	treesIdentical(t, "non-tree delete", tr, fresh)

	// Deleting a tree edge changes the forest: one rebuild, in place.
	cut := graph.Batch{Delete: []graph.Edge{tr.Edges[len(tr.Edges)/2]}}
	if _, err := inc.UpdateCtx(nil, cut); err != nil {
		t.Fatal(err)
	}
	if inc.indexBuilds != 2 {
		t.Fatalf("a tree-edge delete ran %d index builds in all, want 2", inc.indexBuilds)
	}
	if updated, _, err = graph.ApplyBatch(updated, cut); err != nil {
		t.Fatal(err)
	}
	if fresh, err = BuildPoolCtx(nil, nil, updated, 0.2, 4, 2, core.DirectionAuto); err != nil {
		t.Fatal(err)
	}
	treesIdentical(t, "tree-edge delete", tr, fresh)
}
