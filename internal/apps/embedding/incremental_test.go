package embedding

import (
	"math"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

func embeddingsEqual(t *testing.T, tag string, got, want *Tree) {
	t.Helper()
	if got.Levels != want.Levels {
		t.Fatalf("%s: Levels = %d, want %d", tag, got.Levels, want.Levels)
	}
	for l := range want.assignment {
		for v := range want.assignment[l] {
			if got.assignment[l][v] != want.assignment[l][v] {
				t.Fatalf("%s: assignment[%d][%d] = %d, want %d", tag, l, v,
					got.assignment[l][v], want.assignment[l][v])
			}
		}
	}
	for l := range want.length {
		if math.Float64bits(got.length[l]) != math.Float64bits(want.length[l]) {
			t.Fatalf("%s: length[%d] differs", tag, l)
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
}

// TestIncrementalMatchesRebuild drives random batches through
// Incremental.UpdateCtx and requires the maintained embedding to be
// bit-identical to BuildPoolCtx on the updated graph with the same pinned
// diam0.
func TestIncrementalMatchesRebuild(t *testing.T) {
	base := graph.Grid2D(15, 13)
	const diam0, seed = 28.0, 11
	for _, w := range []int{1, 4} {
		inc, err := BuildIncrementalPoolCtx(nil, nil, base, diam0, seed, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		fresh0, err := BuildPoolCtx(nil, nil, base, diam0, seed, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		embeddingsEqual(t, "initial", inc.Tree(), fresh0)

		cur := base
		for step := uint64(0); step < 4; step++ {
			var b graph.Batch
			n := uint64(cur.NumVertices())
			for i := 0; i < 6; i++ {
				b.Insert = append(b.Insert, graph.Edge{
					U: uint32(xrand.Mix(step, uint64(i)*2+1) % n),
					V: uint32(xrand.Mix(step, uint64(i)*2+2) % n),
				})
			}
			edges := cur.Edges()
			for i := 0; i < 4; i++ {
				b.Delete = append(b.Delete, edges[xrand.Mix(step, 0xe4b+uint64(i))%uint64(len(edges))])
			}
			us, err := inc.UpdateCtx(nil, b)
			if err != nil {
				t.Fatalf("w=%d step %d: %v", w, step, err)
			}
			if us.Repartitioned+us.Refined+us.Reused != us.Levels {
				t.Fatalf("step %d: inconsistent stats %+v", step, us)
			}
			cur, _, err = graph.ApplyBatch(cur, b)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildPoolCtx(nil, nil, cur, diam0, seed, w, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			embeddingsEqual(t, "updated", inc.Tree(), fresh)

			// The tree metric itself must agree on sampled pairs.
			gs := inc.Tree().MeasureDistortion(64, 5)
			ws := fresh.MeasureDistortion(64, 5)
			if gs != ws {
				t.Fatalf("step %d: distortion %+v, want %+v", step, gs, ws)
			}
		}
	}
}

// TestIncrementalNoOp checks the reuse fast path: a batch with no
// effective change reuses every level; deleting an edge that no level's
// fixpoint depends on re-partitions nothing (levels may still re-refine or
// merely refresh stats).
func TestIncrementalNoOp(t *testing.T) {
	base := graph.Grid2D(20, 19)
	inc, err := BuildIncrementalPoolCtx(nil, nil, base, 24, 2, 2, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	us, err := inc.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if us.Reused != us.Levels || us.Repartitioned+us.Refined != 0 {
		t.Fatalf("no-op batch: %+v", us)
	}

	// Find an edge that is a non-tree intra edge for EVERY level's
	// decomposition: deleting it must not re-partition any level.
	var target *graph.Edge
	for _, e := range inc.Tree().G.Edges() {
		safe := true
		for _, lp := range inc.parts {
			d := lp.d
			if d.Center[e.U] != d.Center[e.V] || d.Parent[e.U] == e.V || d.Parent[e.V] == e.U {
				safe = false
				break
			}
		}
		if safe {
			e := e
			target = &e
			break
		}
	}
	if target == nil {
		t.Skip("no universally safe edge on this instance")
	}
	us, err = inc.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{*target}})
	if err != nil {
		t.Fatal(err)
	}
	if us.Repartitioned != 0 {
		t.Fatalf("universally safe delete re-partitioned: %+v", us)
	}
}
