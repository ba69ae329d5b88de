package embedding

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/parallel"
	"mpx/internal/parallel/faultpool"
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

// TestIncrementalUpdateCancelUntouched fails an update at every context
// poll, by cancellation and by a panic, at workers 1, 2 and 8, and
// requires the embedding to be left exactly as it was. A clean retry must
// then equal BuildPoolCtx on the updated graph with the pinned diam0.
func TestIncrementalUpdateCancelUntouched(t *testing.T) {
	base := graph.Grid2D(15, 13)
	const diam0, seed = 28.0, 11
	// The batch re-partitions some levels and verifies others, so both
	// staged paths fail part-way.
	b := graph.Batch{Insert: []graph.Edge{{U: 3, V: 17}}, Delete: []graph.Edge{{U: 4, V: 5}}}
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			build := func() *Incremental {
				inc, err := BuildIncrementalPoolCtx(nil, pool, base, diam0, seed, w, core.DirectionAuto)
				if err != nil {
					t.Fatal(err)
				}
				return inc
			}
			inc := build()
			// The state an untouched embedding keeps: its graph, a deep copy
			// of its tree, and each level's decomposition with that
			// decomposition's graph.
			tr := inc.Tree()
			g0 := tr.G
			want := &Tree{G: g0, pieceTree: pieceTree{
				Levels:     tr.Levels,
				Stats:      slices.Clone(tr.Stats),
				assignment: make([][]uint32, len(tr.assignment)),
				length:     slices.Clone(tr.length),
			}}
			for l, a := range tr.assignment {
				want.assignment[l] = slices.Clone(a)
			}
			parts := slices.Clone(inc.parts)
			untouched := func(tag string) {
				t.Helper()
				if inc.Tree() != tr || tr.G != g0 {
					t.Fatalf("%s: tree or graph replaced", tag)
				}
				embeddingsEqual(t, tag, tr, want)
				if !slices.Equal(inc.parts, parts) {
					t.Fatalf("%s: level decompositions replaced", tag)
				}
				for l, lp := range parts {
					if lp.d.G != g0 {
						t.Fatalf("%s: level %d's decomposition moved to another graph", tag, l)
					}
				}
			}

			probe := faultpool.CancelAtCheck(1 << 40)
			us, err := build().UpdateCtx(probe, b)
			if err != nil {
				t.Fatalf("probe update: %v", err)
			}
			if us.Repartitioned == 0 || us.Repartitioned == us.Levels {
				t.Fatalf("probe update %+v: want both re-partitioned and verified levels", us)
			}
			polls := probe.Polls()
			for n := 1; n <= polls; n++ {
				us, err := inc.UpdateCtx(faultpool.CancelAtCheck(n), b)
				if !errors.Is(err, context.Canceled) || us != (UpdateStats{}) {
					t.Fatalf("cancel at poll %d: %+v, %v; want zero stats and context.Canceled", n, us, err)
				}
				untouched(fmt.Sprintf("cancel at poll %d", n))
				var pe *parallel.PanicError
				us, err = inc.UpdateCtx(faultpool.PanicAtCheck(n), b)
				if !errors.As(err, &pe) || !errors.Is(err, faultpool.ErrInjected) || us != (UpdateStats{}) {
					t.Fatalf("panic at poll %d: %+v, %v; want zero stats and the injected panic", n, us, err)
				}
				untouched(fmt.Sprintf("panic at poll %d", n))
			}

			if _, err := inc.UpdateCtx(nil, b); err != nil {
				t.Fatalf("retry: %v", err)
			}
			newG, _, err := graph.ApplyBatch(base, b)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildPoolCtx(nil, pool, newG, diam0, seed, w, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			embeddingsEqual(t, "retry", inc.Tree(), fresh)
		})
	}
}
