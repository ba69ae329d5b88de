// Package solver implements the application the paper names as its target:
// solving symmetric diagonally dominant (SDD) linear systems — here graph
// Laplacians — with tree-preconditioned conjugate gradient, where the
// preconditioner tree comes from the decomposition hierarchy (a low-stretch
// spanning tree built over Partition).
//
// The pipeline reproduced: Partition → AKPW-style low-stretch tree →
// O(n)-time exact tree solves as the preconditioner inside PCG. The
// classical support-theory bound says the PCG iteration count scales with
// the square root of the tree's total stretch, which is exactly the
// quantity the low-diameter decomposition improves — so a better
// decomposition is measurably a better solver (experiment E14: the
// low-stretch tree needs ~40% fewer iterations than a BFS tree, and the
// gap widens with n).
//
// Weighted graphs (paper Section 6) run the same pipeline with edge weights
// as conductances: NewWeightedLaplacian and NewWeightedTreeSolver return the
// same Laplacian and TreeSolver types carrying a weight array (nil means
// unit weights), preconditioned by the weighted AKPW tree. At unit weights
// the weighted operators perform the unweighted float operations bit for
// bit.
//
// Honest scope note: a bare tree preconditioner does not beat plain CG on
// grids (total stretch ≈ m·polylog exceeds κ(L) ≈ n there); the full
// nearly-linear solvers of the literature augment the tree with sampled
// off-tree edges and recurse. This package implements the tree stage —
// the part the paper's decomposition feeds — and measures exactly that.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mpx/internal/graph"
)

// ctxErr polls ctx inside the CG iteration loop; a nil ctx is never
// cancelled. As in core, the poll calls ctx.Err() directly so
// fault-injection contexts that trip on the Nth poll observe every
// iteration boundary.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Laplacian is the linear operator L = D − A of a graph, with edge weights
// acting as conductances; an unweighted graph has unit conductances.
type Laplacian struct {
	g *graph.Graph
	w []float64 // per-arc conductance; nil means 1
}

// NewLaplacian wraps a graph as its Laplacian operator.
func NewLaplacian(g *graph.Graph) *Laplacian { return &Laplacian{g: g} }

// NewWeightedLaplacian wraps a weighted graph as its Laplacian operator
// L = D_w − A_w.
func NewWeightedLaplacian(wg *graph.WeightedGraph) *Laplacian {
	return &Laplacian{g: wg.Unweighted(), w: wg.Weights()}
}

// Dim returns the number of variables (vertices).
func (l *Laplacian) Dim() int { return l.g.NumVertices() }

// Apply computes out = L·x. The diagonal is the sum of the incident
// conductances and each off-diagonal term is w·x[u]. At unit weights that
// sum is exactly the integer degree and 1·x[u] is exactly x[u], so a
// weighted Laplacian performs the unweighted float operations bit for bit.
func (l *Laplacian) Apply(x, out []float64) {
	offsets, adj, w := l.g.Offsets(), l.g.Adjacency(), l.w
	for v := 0; v < l.Dim(); v++ {
		lo, hi := offsets[v], offsets[v+1]
		if w == nil {
			s := float64(hi-lo) * x[v]
			for i := lo; i < hi; i++ {
				s -= x[adj[i]]
			}
			out[v] = s
			continue
		}
		var deg float64
		for _, c := range w[lo:hi] {
			deg += c
		}
		s := deg * x[v]
		for i := lo; i < hi; i++ {
			s -= w[i] * x[adj[i]]
		}
		out[v] = s
	}
}

// TreeSolver solves L_T y = r exactly in O(n) for the Laplacian of a
// spanning tree T, the preconditioner of PCG. The right-hand side must sum
// to zero (Laplacians are singular with nullspace 1); the returned solution
// is normalized to mean zero.
type TreeSolver struct {
	n       int
	parent  []int32   // parent vertex in the rooted tree, -1 for the root
	parentW []float64 // conductance of the edge to the parent; nil means 1
	order   []int32   // vertices in BFS order from the root (parents first)
}

// NewTreeSolver roots the given spanning tree. The edges must form a
// spanning tree of n vertices (connected, acyclic).
func NewTreeSolver(n int, edges []graph.Edge) (*TreeSolver, error) {
	unit := make([]graph.WeightedEdge, len(edges))
	for i, e := range edges {
		unit[i] = graph.WeightedEdge{U: e.U, V: e.V, W: 1}
	}
	return newTreeSolver(n, unit, false)
}

// NewWeightedTreeSolver roots the given weighted spanning tree (weights as
// conductances). The edges must form a spanning tree of n vertices with
// positive finite weights.
func NewWeightedTreeSolver(n int, edges []graph.WeightedEdge) (*TreeSolver, error) {
	return newTreeSolver(n, edges, true)
}

func newTreeSolver(n int, edges []graph.WeightedEdge, weighted bool) (*TreeSolver, error) {
	if len(edges) != n-1 && n > 0 {
		return nil, errors.New("solver: edge set is not a spanning tree")
	}
	adj := make([][]int32, n) // per vertex: the indices of its edges
	for i, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, errors.New("solver: tree edge out of range")
		}
		if !(e.W > 0) || math.IsInf(e.W, 0) {
			return nil, errors.New("solver: tree edge weight must be positive and finite")
		}
		adj[e.U] = append(adj[e.U], int32(i))
		adj[e.V] = append(adj[e.V], int32(i))
	}
	ts := &TreeSolver{
		n:      n,
		parent: make([]int32, n),
		order:  make([]int32, 0, n),
	}
	if weighted {
		ts.parentW = make([]float64, n)
	}
	for i := range ts.parent {
		ts.parent[i] = -2 // unvisited
	}
	if n == 0 {
		return ts, nil
	}
	ts.parent[0] = -1
	ts.order = append(ts.order, 0)
	for head := 0; head < len(ts.order); head++ {
		v := ts.order[head]
		for _, i := range adj[v] {
			e := edges[i]
			u := int32(e.U)
			if u == v {
				u = int32(e.V)
			}
			if ts.parent[u] == -2 {
				ts.parent[u] = v
				if weighted {
					ts.parentW[u] = e.W
				}
				ts.order = append(ts.order, u)
			}
		}
	}
	if len(ts.order) != n {
		return nil, errors.New("solver: tree is not connected")
	}
	return ts, nil
}

// Solve computes y with L_T y = r (r must be orthogonal to the all-ones
// vector up to fp error) into out. Two passes: subtree sums upward, then
// potentials downward — the current through the edge to the parent is the
// subtree sum S, so the potential drop across it is S/w (S at unit
// conductance, where S/1.0 would be exactly S); finally shift to mean zero.
func (ts *TreeSolver) Solve(r, out []float64) {
	n := ts.n
	if n == 0 {
		return
	}
	// Upward: S[v] = sum of r over the subtree of v.
	s := out // reuse out as scratch: filled in reverse BFS order
	copy(s, r)
	for i := n - 1; i >= 1; i-- {
		v := ts.order[i]
		s[ts.parent[v]] += s[v]
	}
	// Downward: y[child] = y[parent] + S[child]/w. Overwrite s in BFS
	// order — parents are finalized before children, and s[v] is consumed
	// exactly when v is visited.
	root := ts.order[0]
	s[root] = 0
	for i := 1; i < n; i++ {
		v := ts.order[i]
		drop := s[v]
		if ts.parentW != nil {
			drop /= ts.parentW[v]
		}
		s[v] = s[ts.parent[v]] + drop
	}
	// Normalize to mean zero.
	var mean float64
	for _, y := range s {
		mean += y
	}
	mean /= float64(n)
	for i := range s {
		s[i] -= mean
	}
}

// Result reports a solve.
type Result struct {
	Iterations int
	Residual   float64 // final ||Lx − b|| / ||b||
	Converged  bool
}

// CG runs (unpreconditioned) conjugate gradient on L x = b, with b
// projected onto 1-perp. It stops when the relative residual drops below
// tol or after maxIter iterations.
func CG(l *Laplacian, b []float64, tol float64, maxIter int) ([]float64, Result) {
	return NewSolver(l, nil, tol, maxIter).Solve(b)
}

// PCG runs conjugate gradient preconditioned by exact tree solves.
func PCG(l *Laplacian, ts *TreeSolver, b []float64, tol float64, maxIter int) ([]float64, Result) {
	return NewSolver(l, ts, tol, maxIter).Solve(b)
}

// Solver is a reusable PCG solver: the preconditioner-as-a-service shape,
// where one operator serves many right-hand sides and a per-solve
// allocation would be a per-request allocation. All scratch vectors (x,
// projected rhs, residual, preconditioned residual, search direction,
// L·p) are hoisted into the object, so a steady-state Solve allocates
// nothing. CG and PCG run one fresh Solver each, so a reused Solver's
// results are bit-identical to theirs. Not safe for concurrent use; create
// one Solver per goroutine.
type Solver struct {
	l       *Laplacian
	pre     *TreeSolver // nil = plain CG
	tol     float64
	maxIter int

	x, rhs, r, z, p, lp []float64
}

// NewSolver builds a reusable solver for L x = b, preconditioned by exact
// tree solves (ts nil = plain CG).
func NewSolver(l *Laplacian, ts *TreeSolver, tol float64, maxIter int) *Solver {
	n := l.Dim()
	return &Solver{
		l: l, pre: ts, tol: tol, maxIter: maxIter,
		x: make([]float64, n), rhs: make([]float64, n), r: make([]float64, n),
		z: make([]float64, n), p: make([]float64, n), lp: make([]float64, n),
	}
}

// Solve runs PCG on b. The returned solution slice is owned by the Solver
// and valid until the next Solve; copy it to retain. Bit-identical to the
// one-shot CG/PCG on the same operator and b. A b whose length is not the
// operator's dimension is a caller bug and panics.
func (s *Solver) Solve(b []float64) ([]float64, Result) {
	x, res, _ := s.solve(nil, b)
	return x, res
}

// SolveCtx is Solve with a cancellation context (nil means never
// cancelled), polled at every CG iteration — the uniform deadline shape a
// serving layer needs. A cancelled solve returns (nil, Result{}, ctx.Err())
// and the solver remains reusable.
func (s *Solver) SolveCtx(ctx context.Context, b []float64) ([]float64, Result, error) {
	return s.solve(ctx, b)
}

func (s *Solver) solve(ctx context.Context, b []float64) ([]float64, Result, error) {
	n := len(s.x)
	if len(b) != n {
		panic(fmt.Sprintf("solver: right-hand side has %d entries for a %d-vertex Laplacian", len(b), n))
	}
	x := s.x
	for i := range x {
		x[i] = 0
	}
	if n == 0 {
		return x, Result{Converged: true}, nil
	}
	// Project b onto the range of L (orthogonal complement of 1).
	rhs := s.rhs
	var mean float64
	for _, v := range b {
		mean += v
	}
	mean /= float64(n)
	for i := range rhs {
		rhs[i] = b[i] - mean
	}
	bNorm := norm(rhs)
	if bNorm == 0 {
		return x, Result{Converged: true}, nil
	}

	r := s.r
	copy(r, rhs)
	z := s.z
	applyPre := func() {
		if s.pre == nil {
			copy(z, r)
		} else {
			s.pre.Solve(r, z)
		}
	}
	applyPre()
	p := s.p
	copy(p, z)
	lp := s.lp
	rz := dot(r, z)
	res := Result{}
	for res.Iterations = 0; res.Iterations < s.maxIter; res.Iterations++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, Result{}, cerr
		}
		if norm(r)/bNorm < s.tol {
			res.Converged = true
			break
		}
		s.l.Apply(p, lp)
		plp := dot(p, lp)
		if plp <= 0 {
			break // numerical breakdown (p in nullspace)
		}
		alpha := rz / plp
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * lp[i]
		}
		applyPre()
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = norm(r) / bNorm
	if res.Residual < s.tol {
		res.Converged = true
	}
	return x, res, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}
