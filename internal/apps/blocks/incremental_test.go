package blocks

import (
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

func decompsEqual(t *testing.T, tag string, got, want *Decomposition) {
	t.Helper()
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d blocks, want %d", tag, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		gb, wb := &got.Blocks[i], &want.Blocks[i]
		if gb.MaxComponentRadius != wb.MaxComponentRadius || gb.Clusters != wb.Clusters {
			t.Fatalf("%s: block %d meta (%d,%d), want (%d,%d)", tag, i,
				gb.MaxComponentRadius, gb.Clusters, wb.MaxComponentRadius, wb.Clusters)
		}
		if len(gb.Edges) != len(wb.Edges) {
			t.Fatalf("%s: block %d has %d edges, want %d", tag, i, len(gb.Edges), len(wb.Edges))
		}
		for j := range wb.Edges {
			if gb.Edges[j] != wb.Edges[j] {
				t.Fatalf("%s: block %d edge %d differs", tag, i, j)
			}
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
// Incremental.UpdateCtx and requires the maintained block decomposition to be
// bit-identical to DecomposePoolCtx on the updated graph (same explicit
// iteration cap) at every step — including the edge-partition invariant.
func TestIncrementalMatchesRebuild(t *testing.T) {
	base := graph.Grid2D(16, 14)
	const beta, seed, maxIters = 0.5, 7, 80
	for _, w := range []int{1, 4} {
		inc, err := BuildIncrementalPoolCtx(nil, nil, base, beta, seed, maxIters, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		fresh0, err := DecomposePoolCtx(nil, nil, base, beta, seed, maxIters, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		decompsEqual(t, "initial", inc.Decomposition(), fresh0)

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
			for i := 0; i < 5; i++ {
				b.Delete = append(b.Delete, edges[xrand.Mix(step, 0x1b+uint64(i))%uint64(len(edges))])
			}
			us, err := inc.UpdateCtx(nil, b)
			if err != nil {
				t.Fatalf("w=%d step %d: %v", w, step, err)
			}
			cur, _, err = graph.ApplyBatch(cur, b)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := DecomposePoolCtx(nil, nil, cur, beta, seed, maxIters, w, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			decompsEqual(t, "updated", inc.Decomposition(), fresh)
			if got := inc.Decomposition().EdgeCount(); got != cur.NumEdges() {
				t.Fatalf("step %d: blocks cover %d edges, graph has %d", step, got, cur.NumEdges())
			}
			if us.Levels != inc.h.Levels() {
				t.Fatalf("step %d: stats levels %d, hierarchy has %d", step, us.Levels, inc.h.Levels())
			}
		}
	}
}

// TestIncrementalNoOp checks the splice fast path at the app layer.
func TestIncrementalNoOp(t *testing.T) {
	base := graph.Grid2D(12, 12)
	inc, err := BuildIncrementalPoolCtx(nil, nil, base, 0.5, 3, 80, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	before := len(inc.Decomposition().Blocks)
	us, err := inc.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if us.Reused != us.Levels || us.Refreshed+us.Rederived != 0 {
		t.Fatalf("no-op batch: %+v", us)
	}
	if len(inc.Decomposition().Blocks) != before {
		t.Fatal("no-op batch changed the block list")
	}
}
