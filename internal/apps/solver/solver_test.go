package solver

import (
	"math"
	"testing"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// denseSolve solves L x = b for a small Laplacian by Gaussian elimination
// with the last row/column pinned to break the nullspace; used as an
// oracle.
func denseSolve(g *graph.Graph, b []float64) []float64 {
	n := g.NumVertices()
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for v := 0; v < n; v++ {
		a[v][v] = float64(g.Degree(uint32(v)))
		for _, u := range g.Neighbors(uint32(v)) {
			a[v][u] -= 1
		}
		a[v][n] = b[v]
	}
	// Pin x[n-1] = 0: replace last equation.
	for j := 0; j <= n; j++ {
		a[n-1][j] = 0
	}
	a[n-1][n-1] = 1
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for j := col; j <= n; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n] / a[i][i]
	}
	// Shift to mean zero for comparison with CG solutions.
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	for i := range x {
		x[i] -= mean
	}
	return x
}

func randomRHS(n int, seed uint64) []float64 {
	b := make([]float64, n)
	var sum float64
	for i := range b {
		b[i] = xrand.Uniform01(seed, uint64(i)) - 0.5
		sum += b[i]
	}
	for i := range b {
		b[i] -= sum / float64(n)
	}
	return b
}

func TestLaplacianApply(t *testing.T) {
	g := graph.Path(3) // L = [[1,-1,0],[-1,2,-1],[0,-1,1]]
	l := NewLaplacian(g)
	x := []float64{1, 2, 4}
	out := make([]float64, 3)
	l.Apply(x, out)
	want := []float64{-1, -1, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("Lx[%d]=%g want %g", i, out[i], want[i])
		}
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	g := graph.GNM(50, 150, 3)
	l := NewLaplacian(g)
	ones := make([]float64, 50)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, 50)
	l.Apply(ones, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("L*1 nonzero at %d: %g", i, v)
		}
	}
}

func TestTreeSolverExact(t *testing.T) {
	// Solve on several trees and verify L_T y = r exactly.
	trees := []*graph.Graph{
		graph.Path(20),
		graph.Star(15),
		graph.BinaryTree(31),
		graph.Caterpillar(8, 2),
	}
	for gi, g := range trees {
		ts, err := NewTreeSolver(g.NumVertices(), g.Edges())
		if err != nil {
			t.Fatalf("tree %d: %v", gi, err)
		}
		r := randomRHS(g.NumVertices(), uint64(gi)+1)
		y := make([]float64, g.NumVertices())
		ts.Solve(r, y)
		l := NewLaplacian(g)
		out := make([]float64, g.NumVertices())
		l.Apply(y, out)
		for i := range out {
			if math.Abs(out[i]-r[i]) > 1e-9 {
				t.Fatalf("tree %d: (L_T y)[%d]=%g want %g", gi, i, out[i], r[i])
			}
		}
	}
}

func TestTreeSolverRejectsBadInput(t *testing.T) {
	if _, err := NewTreeSolver(4, []graph.Edge{{U: 0, V: 1}}); err == nil {
		t.Error("expected non-spanning error")
	}
	// Right edge count but disconnected (cycle + isolated): 3 edges, 4 vertices.
	bad := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	if _, err := NewTreeSolver(4, bad); err == nil {
		t.Error("expected connectivity error")
	}
	if _, err := NewTreeSolver(2, []graph.Edge{{U: 0, V: 7}}); err == nil {
		t.Error("expected range error")
	}
}

func TestCGMatchesDenseOracle(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Grid2D(5, 6),
		graph.Cycle(12),
		graph.GNM(25, 60, 9),
	}
	for gi, g := range graphs {
		l := NewLaplacian(g)
		b := randomRHS(g.NumVertices(), uint64(gi)+11)
		x, res := CG(l, b, 1e-10, 10*g.NumVertices())
		if !res.Converged {
			t.Fatalf("graph %d: CG did not converge (res %g)", gi, res.Residual)
		}
		oracle := denseSolve(g, b)
		for i := range x {
			if math.Abs(x[i]-oracle[i]) > 1e-6 {
				t.Fatalf("graph %d: x[%d]=%g oracle %g", gi, i, x[i], oracle[i])
			}
		}
	}
}

func TestPCGMatchesCGSolution(t *testing.T) {
	g := graph.Grid2D(10, 10)
	l := NewLaplacian(g)
	b := randomRHS(g.NumVertices(), 5)
	tree, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 3, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTreeSolver(g.NumVertices(), tree.Edges)
	if err != nil {
		t.Fatal(err)
	}
	x1, r1 := CG(l, b, 1e-9, 2000)
	x2, r2 := PCG(l, ts, b, 1e-9, 2000)
	if !r1.Converged || !r2.Converged {
		t.Fatalf("convergence: cg=%v pcg=%v", r1, r2)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-5 {
			t.Fatalf("solutions differ at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestLowStretchTreePreconditionsBetterThanBFSTree(t *testing.T) {
	// The point of the pipeline: PCG iteration count scales with the square
	// root of the tree's TOTAL stretch, so the low-stretch tree (built over
	// Partition) converges in measurably fewer iterations than a BFS tree.
	// (Tree-only preconditioning does not beat plain CG on grids — the full
	// solver adds sampled off-tree edges for that; see package doc.)
	// Measured on this seed: side 40 grid, AKPW 224 vs BFS 320 iterations.
	g := graph.Grid2D(40, 40)
	l := NewLaplacian(g)
	b := randomRHS(g.NumVertices(), 17)
	akpw, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 7, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	bfsTree, err := lowstretch.BFSTree(g)
	if err != nil {
		t.Fatal(err)
	}
	tsA, err := NewTreeSolver(g.NumVertices(), akpw.Edges)
	if err != nil {
		t.Fatal(err)
	}
	tsB, err := NewTreeSolver(g.NumVertices(), bfsTree.Edges)
	if err != nil {
		t.Fatal(err)
	}
	_, pa := PCG(l, tsA, b, 1e-8, 20000)
	_, pb := PCG(l, tsB, b, 1e-8, 20000)
	if !pa.Converged || !pb.Converged {
		t.Fatalf("convergence: akpw=%+v bfs=%+v", pa, pb)
	}
	if pa.Iterations >= pb.Iterations {
		t.Errorf("AKPW-tree PCG iterations %d not below BFS-tree PCG %d",
			pa.Iterations, pb.Iterations)
	}
}

func TestSolveEmptyAndTrivial(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil)
	l := NewLaplacian(empty)
	x, res := CG(l, nil, 1e-9, 10)
	if len(x) != 0 || !res.Converged {
		t.Error("empty solve broken")
	}
	ts, err := NewTreeSolver(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.Solve(nil, nil)

	// Zero RHS converges immediately.
	g := graph.Path(5)
	x, res = CG(NewLaplacian(g), make([]float64, 5), 1e-9, 10)
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Error("zero rhs must give zero solution")
		}
	}
}
