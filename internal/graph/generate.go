package graph

import (
	"fmt"

	"mpx/internal/xrand"
)

// This file holds the synthetic graph generators used by the experiment
// suite. Each generator is deterministic for a fixed seed and documents its
// exact vertex/edge counts so tests can assert structure.

// Grid2D returns the rows x cols grid graph (4-neighbor mesh). The paper's
// Figure 1 uses Grid2D(1000, 1000). n = rows*cols, m = rows*(cols-1) +
// cols*(rows-1).
func Grid2D(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: Grid2D dimensions must be positive")
	}
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	edges := make([]Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	g, err := FromEdges(rows*cols, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Torus2D returns the rows x cols grid with wraparound edges; every vertex
// has degree 4 (degree 2 when a dimension has length 2 collapses duplicate
// wrap edges; dimensions must be >= 3 to avoid parallel edges).
func Torus2D(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D dimensions must be >= 3")
	}
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	edges := make([]Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, Edge{id(r, c), id(r, (c+1)%cols)})
			edges = append(edges, Edge{id(r, c), id((r+1)%rows, c)})
		}
	}
	g, err := FromEdges(rows*cols, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns the path graph on n vertices (the paper's worst case for the
// number of pieces: a (β, d) decomposition of a path needs ~βn pieces).
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{uint32(i), uint32(i + 1)})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Cycle returns the cycle on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{uint32(i), uint32((i + 1) % n)})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Complete returns K_n (the paper's example where a single piece may hold
// the whole graph).
func Complete(n int) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{uint32(i), uint32(j)})
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, uint32(i)})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// BinaryTree returns the complete binary tree with n vertices (vertex i has
// children 2i+1 and 2i+2 when present).
func BinaryTree(n int) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		if 2*i+1 < n {
			edges = append(edges, Edge{uint32(i), uint32(2*i + 1)})
		}
		if 2*i+2 < n {
			edges = append(edges, Edge{uint32(i), uint32(2*i + 2)})
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Hypercube returns the d-dimensional hypercube graph: n = 2^d vertices,
// each adjacent to the d vertices differing in one bit.
func Hypercube(d int) *Graph {
	if d < 0 || d > 30 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << d
	var edges []Edge
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				edges = append(edges, Edge{uint32(v), uint32(w)})
			}
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// GNM returns an Erdős–Rényi G(n, m) multigraph sample with self loops and
// duplicates rejected, so exactly m distinct edges (requires m <= n(n-1)/2).
func GNM(n int, m int64, seed uint64) *Graph {
	if n < 2 {
		panic("graph: GNM needs n >= 2")
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("graph: GNM m=%d exceeds max %d", m, maxEdges))
	}
	rng := xrand.NewSplitMix64(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	for int64(len(edges)) < m {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{u, v})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// PreferentialAttachment returns a Barabási–Albert style graph: vertices
// arrive one at a time and attach k edges to existing vertices chosen
// proportionally to degree (via the repeated-endpoint trick). The result is
// connected with m = k*(n-k) + C(k,2)-ish edges after dedup.
func PreferentialAttachment(n, k int, seed uint64) *Graph {
	if k < 1 || n <= k {
		panic("graph: PreferentialAttachment needs 1 <= k < n")
	}
	rng := xrand.NewSplitMix64(seed)
	// endpoint pool: every time an edge {u,v} is added, push u and v; picking
	// a uniform pool element picks vertices ∝ degree.
	var pool []uint32
	var edges []Edge
	// Seed clique on the first k+1 vertices keeps early choices meaningful.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, Edge{uint32(i), uint32(j)})
			pool = append(pool, uint32(i), uint32(j))
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := make([]uint32, 0, k)
		for len(chosen) < k {
			t := pool[rng.Intn(len(pool))]
			if int(t) >= v {
				continue
			}
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, Edge{uint32(v), t})
			pool = append(pool, uint32(v), t)
		}
	}
	g, err := FromEdgesDedup(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// RMAT samples an R-MAT graph (Chakrabarti et al.) with the standard
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) partition probabilities, scale
// log2(n) and the requested number of edge samples. Self loops and
// duplicates are removed, so the realized edge count is slightly below
// edgeSamples. RMAT graphs are the skewed-degree workload in the suite.
func RMAT(scale int, edgeSamples int64, seed uint64) *Graph {
	if scale < 1 || scale > 30 {
		panic("graph: RMAT scale out of range")
	}
	n := 1 << scale
	rng := xrand.NewSplitMix64(seed)
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]Edge, 0, edgeSamples)
	for i := int64(0); i < edgeSamples; i++ {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// stay in the (0,0) quadrant
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	g, err := FromEdgesDedup(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Caterpillar returns a path of length spine with legs pendant vertices
// attached to every spine vertex: a tree with skewed structure used in
// diameter edge cases.
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic("graph: Caterpillar needs spine >= 1, legs >= 0")
	}
	n := spine * (1 + legs)
	var edges []Edge
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, Edge{uint32(i), uint32(i + 1)})
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, Edge{uint32(i), uint32(next)})
			next++
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// RoadNetwork returns a synthetic road-network-like graph: a rows x cols
// grid where each edge survives with probability keep and a few random
// "highway" shortcut edges are added between random vertices. Disconnected
// leftovers are reconnected through the largest component is NOT enforced;
// callers that need connectivity should extract the largest component. This
// stands in for the real road traces the literature evaluates on (we have
// no dataset access offline); it preserves the relevant behavior: bounded
// degree, high diameter, spatial locality.
func RoadNetwork(rows, cols int, keep float64, highways int, seed uint64) *Graph {
	if keep <= 0 || keep > 1 {
		panic("graph: RoadNetwork keep must be in (0,1]")
	}
	rng := xrand.NewSplitMix64(seed)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < keep {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows && rng.Float64() < keep {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	n := rows * cols
	for h := 0; h < highways; h++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	g, err := FromEdgesDedup(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbors on each side, with each edge
// rewired to a random endpoint with probability p. Small-world graphs mix
// the high clustering of lattices with logarithmic diameter — a workload
// family between grids and G(n,m) for the decomposition experiments.
func WattsStrogatz(n, k int, p float64, seed uint64) *Graph {
	if n < 2*k+2 || k < 1 {
		panic("graph: WattsStrogatz needs n >= 2k+2, k >= 1")
	}
	if p < 0 || p > 1 {
		panic("graph: WattsStrogatz rewiring probability out of [0,1]")
	}
	rng := xrand.NewSplitMix64(seed)
	seen := make(map[uint64]struct{}, n*k)
	addKey := func(u, v uint32) bool {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		return true
	}
	edges := make([]Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			u := uint32(v)
			w := uint32((v + j) % n)
			if rng.Float64() < p {
				// Rewire the far endpoint to a uniform non-duplicate target.
				for attempt := 0; attempt < 32; attempt++ {
					cand := uint32(rng.Intn(n))
					if cand != u && addKey(u, cand) {
						w = cand
						goto added
					}
				}
				// Fall back to the lattice edge if rewiring keeps colliding.
				if !addKey(u, w) {
					continue
				}
			} else if !addKey(u, w) {
				continue
			}
		added:
			edges = append(edges, Edge{u, w})
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
