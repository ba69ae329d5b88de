package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/parallel/faultpool"
	"mpx/internal/xrand"
)

func buildWeightedFixture(t *testing.T) (*Laplacian, *TreeSolver, []float64) {
	t.Helper()
	g := graph.Grid2D(20, 20)
	wg := graph.RandomWeights(g, 1, 4, 3)
	tr, err := lowstretch.BuildWeightedPoolCtx(nil, nil, wg, 0.4, 1, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewWeightedTreeSolver(wg.NumVertices(), tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.NewSplitMix64(9)
	b := make([]float64, wg.NumVertices())
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	return NewWeightedLaplacian(wg), ts, b
}

// TestSolverBitIdenticalToOneShot pins the reusable Solver to the one-shot
// functions: same x vector bit for bit, same Result, on first use and
// after many reuses with different right-hand sides.
func TestSolverBitIdenticalToOneShot(t *testing.T) {
	l, ts, b := buildWeightedFixture(t)
	s := NewSolver(l, ts, 1e-8, 400)
	rng := xrand.NewSplitMix64(77)
	for iter := 0; iter < 5; iter++ {
		want, wres := PCG(l, ts, b, 1e-8, 400)
		got, gres := s.Solve(b)
		if gres != wres {
			t.Fatalf("iter %d: Result %+v != one-shot %+v", iter, gres, wres)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: x[%d]=%v != one-shot %v", iter, i, got[i], want[i])
			}
		}
		// New rhs for the next round so reuse actually exercises dirty
		// scratch.
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
	}

	// Plain-CG arm (nil preconditioner) on the unweighted operator.
	g := graph.Grid2D(15, 15)
	ul := NewLaplacian(g)
	ub := make([]float64, ul.Dim())
	for i := range ub {
		ub[i] = rng.Float64() - 0.5
	}
	us := NewSolver(ul, nil, 1e-8, 300)
	want, wres := CG(ul, ub, 1e-8, 300)
	got, gres := us.Solve(ub)
	if gres != wres {
		t.Fatalf("CG Result %+v != one-shot %+v", gres, wres)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CG x[%d]=%v != one-shot %v", i, got[i], want[i])
		}
	}
}

// TestSolverSteadyStateAllocs is the repeated-solve gate of the E25
// satellite: after the first Solve, further Solves allocate nothing.
func TestSolverSteadyStateAllocs(t *testing.T) {
	l, ts, b := buildWeightedFixture(t)
	s := NewSolver(l, ts, 1e-8, 400)
	s.Solve(b) // warm-up (lazy runtime state, if any)
	if allocs := testing.AllocsPerRun(10, func() { s.Solve(b) }); allocs != 0 {
		t.Fatalf("steady-state Solve allocates %.1f objects/solve, want 0", allocs)
	}
}

// TestSolverCtxCancellation pins the CG-loop poll: a context cancelled at
// the first iteration boundary aborts the solve with context.Canceled,
// and the solver stays reusable afterwards with bit-identical output.
func TestSolverCtxCancellation(t *testing.T) {
	l, ts, b := buildWeightedFixture(t)
	s := NewSolver(l, ts, 1e-10, 400)
	want, wres := PCG(l, ts, b, 1e-10, 400)
	if wres.Iterations < 2 {
		t.Fatalf("fixture converges in %d iterations; cannot cancel mid-solve", wres.Iterations)
	}

	cc := faultpool.CancelAtCheck(1)
	x, _, err := s.SolveCtx(cc, b)
	if !errors.Is(err, context.Canceled) || x != nil {
		t.Fatalf("cancel at first iteration: x=%v err=%v, want nil + context.Canceled", x, err)
	}

	// Mid-solve cancellation.
	x, _, err = s.SolveCtx(faultpool.CancelAtCheck(wres.Iterations/2+1), b)
	if !errors.Is(err, context.Canceled) || x != nil {
		t.Fatalf("mid-solve cancel: x=%v err=%v, want nil + context.Canceled", x, err)
	}

	// The solver must remain reusable and exact after aborted solves.
	got, gres := s.Solve(b)
	if gres != wres {
		t.Fatalf("post-cancel Result %+v != baseline %+v", gres, wres)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-cancel x[%d] diverged", i)
		}
	}

	// A never-tripping polling context changes nothing.
	got2, gres2, err := s.SolveCtx(faultpool.CancelAtCheck(1<<30), b)
	if err != nil {
		t.Fatal(err)
	}
	if gres2 != wres {
		t.Fatalf("polled Result %+v != baseline %+v", gres2, wres)
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("polled x[%d] diverged", i)
		}
	}
}

// TestSolverRejectsMismatchedRHS: a right-hand side shorter or longer than
// the operator's dimension is a caller bug, and every entry point panics
// with both lengths instead of indexing past b or averaging extra entries
// into the projection.
func TestSolverRejectsMismatchedRHS(t *testing.T) {
	l := NewLaplacian(graph.Path(4))
	ts, err := NewTreeSolver(4, graph.Path(4).Edges())
	if err != nil {
		t.Fatal(err)
	}
	solves := map[string]func(b []float64){
		"CG":    func(b []float64) { CG(l, b, 1e-9, 100) },
		"PCG":   func(b []float64) { PCG(l, ts, b, 1e-9, 100) },
		"Solve": func(b []float64) { NewSolver(l, ts, 1e-9, 100).Solve(b) },
	}
	for name, solve := range solves {
		for _, m := range []int{3, 5} {
			b := []float64{1, -1, 2, -2, 50}[:m]
			want := fmt.Sprintf("solver: right-hand side has %d entries for a 4-vertex Laplacian", m)
			func() {
				defer func() {
					if msg, _ := recover().(string); msg != want {
						t.Errorf("%s with len(b)=%d: panic %q, want %q", name, m, msg, want)
					}
				}()
				solve(b)
			}()
		}
	}
}
