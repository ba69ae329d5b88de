package solver

import (
	"math"
	"testing"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// unitWeights lifts g to a weighted graph with every weight exactly 1.
func unitWeights(g *graph.Graph) *graph.WeightedGraph {
	return graph.RandomWeights(g, 1, 1, 0)
}

func randomVec(n int, seed uint64) []float64 {
	rng := xrand.NewSplitMix64(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// TestWeightedLaplacianUnitEquivalence: at unit weights the weighted
// Laplacian must perform the exact float operations of the unweighted one
// — the weighted degree is a sum of 1.0s (exactly the integer degree) and
// each subtracted term is 1.0·x[u] (exactly x[u]) — so Apply agrees bit
// for bit.
func TestWeightedLaplacianUnitEquivalence(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid": graph.Grid2D(17, 19),
		"gnm":  graph.GNM(800, 3200, 7),
	} {
		wg := unitWeights(g)
		lu := NewLaplacian(g)
		lw := NewWeightedLaplacian(wg)
		if lu.Dim() != lw.Dim() {
			t.Fatal("dimension mismatch")
		}
		x := randomVec(g.NumVertices(), 3)
		outU := make([]float64, len(x))
		outW := make([]float64, len(x))
		lu.Apply(x, outU)
		lw.Apply(x, outW)
		for v := range outU {
			if math.Float64bits(outU[v]) != math.Float64bits(outW[v]) {
				t.Fatalf("%s: L·x diverges at %d: %g vs %g", name, v, outU[v], outW[v])
			}
		}
	}
}

// TestWeightedTreeSolverUnitEquivalence: at unit weights the weighted tree
// solve divides subtree sums by 1.0 (exact), so it must agree bit for bit
// with TreeSolver.
func TestWeightedTreeSolverUnitEquivalence(t *testing.T) {
	g := graph.Grid2D(15, 16)
	tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.3, 2, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	tsU, err := NewTreeSolver(n, tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]graph.WeightedEdge, len(tr.Edges))
	for i, e := range tr.Edges {
		wedges[i] = graph.WeightedEdge{U: e.U, V: e.V, W: 1}
	}
	tsW, err := NewWeightedTreeSolver(n, wedges)
	if err != nil {
		t.Fatal(err)
	}
	r := randomVec(n, 9)
	var mean float64
	for _, v := range r {
		mean += v
	}
	mean /= float64(n)
	for i := range r {
		r[i] -= mean
	}
	outU := make([]float64, n)
	outW := make([]float64, n)
	tsU.Solve(r, outU)
	tsW.Solve(r, outW)
	for v := range outU {
		if math.Float64bits(outU[v]) != math.Float64bits(outW[v]) {
			t.Fatalf("tree solve diverges at %d: %g vs %g", v, outU[v], outW[v])
		}
	}
}

// TestWeightedPCGUnitEquivalence: the full preconditioned solve agrees bit
// for bit with the unweighted pipeline at unit weights (same operator,
// same preconditioner, same generic kernel).
func TestWeightedPCGUnitEquivalence(t *testing.T) {
	g := graph.Grid2D(14, 14)
	wg := unitWeights(g)
	tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.3, 4, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	tsU, err := NewTreeSolver(n, tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]graph.WeightedEdge, len(tr.Edges))
	for i, e := range tr.Edges {
		wedges[i] = graph.WeightedEdge{U: e.U, V: e.V, W: 1}
	}
	tsW, err := NewWeightedTreeSolver(n, wedges)
	if err != nil {
		t.Fatal(err)
	}
	b := randomVec(n, 21)
	xU, resU := PCG(NewLaplacian(g), tsU, b, 1e-8, 400)
	xW, resW := PCG(NewWeightedLaplacian(wg), tsW, b, 1e-8, 400)
	if resU.Iterations != resW.Iterations || resU.Converged != resW.Converged {
		t.Fatalf("PCG runs diverge: %+v vs %+v", resU, resW)
	}
	for v := range xU {
		if math.Float64bits(xU[v]) != math.Float64bits(xW[v]) {
			t.Fatalf("solution diverges at %d: %g vs %g", v, xU[v], xW[v])
		}
	}
}

// TestWeightedPCGSolvesWeightedSystem: end-to-end weighted pipeline — an
// AKPW weighted low-stretch tree preconditioning the weighted Laplacian it
// was built from — must converge to a small residual.
func TestWeightedPCGSolvesWeightedSystem(t *testing.T) {
	g := graph.Grid2D(16, 16)
	wg := graph.RandomWeights(g, 1, 6, 5)
	tr, err := lowstretch.BuildWeightedPoolCtx(nil, nil, wg, 0.3, 7, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ts, err := NewWeightedTreeSolver(n, tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	l := NewWeightedLaplacian(wg)
	b := randomVec(n, 31)
	x, res := PCG(l, ts, b, 1e-8, 2000)
	if !res.Converged {
		t.Fatalf("weighted PCG did not converge: %+v", res)
	}
	// Independent residual check.
	out := make([]float64, n)
	l.Apply(x, out)
	var mean float64
	for _, v := range b {
		mean += v
	}
	mean /= float64(n)
	var rr, bb float64
	for i := range out {
		d := out[i] - (b[i] - mean)
		rr += d * d
		bb += (b[i] - mean) * (b[i] - mean)
	}
	if math.Sqrt(rr/bb) > 1e-6 {
		t.Fatalf("residual %g too large", math.Sqrt(rr/bb))
	}
}
