package graph

import (
	"math"
	"slices"

	"mpx/internal/xrand"
)

// WeightedGraph is an immutable undirected graph in CSR form with positive
// float64 edge lengths, used by the weighted extension (paper Section 6).
type WeightedGraph struct {
	offsets []int64
	adj     []uint32
	weights []float64
}

// WeightedEdge is an undirected weighted edge.
type WeightedEdge struct {
	U, V uint32
	W    float64
}

// NumVertices returns n.
func (g *WeightedGraph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *WeightedGraph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Degree returns the degree of v.
func (g *WeightedGraph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor ids and matching weights of v; both slices
// alias internal storage.
func (g *WeightedGraph) Neighbors(v uint32) ([]uint32, []float64) {
	return g.adj[g.offsets[v]:g.offsets[v+1]], g.weights[g.offsets[v]:g.offsets[v+1]]
}

// FromWeightedEdges builds a weighted CSR graph. Weights must be finite
// and positive (NaN fails every ordered comparison and +Inf passes a bare
// positivity test, and either poisons every downstream distance, so both
// are rejected explicitly); self loops are dropped.
func FromWeightedEdges(n int, edges []WeightedEdge) (*WeightedGraph, error) {
	plain := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, errNonPositiveWeight
		}
		plain = append(plain, Edge{e.U, e.V})
	}
	base, err := FromEdges(n, plain)
	if err != nil {
		return nil, err
	}
	// Rebuild weights aligned with the (sorted) adjacency of base. A map from
	// (u,v) to weight handles the alignment; for parallel edges the last
	// weight wins on both directions symmetrically because we key on the
	// ordered pair.
	wmap := make(map[uint64]float64, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		wmap[uint64(a)<<32|uint64(b)] = e.W
	}
	weights := make([]float64, len(base.adj))
	for v := 0; v < base.NumVertices(); v++ {
		lo, hi := base.offsets[v], base.offsets[v+1]
		for i := lo; i < hi; i++ {
			w := base.adj[i]
			a, b := uint32(v), w
			if a > b {
				a, b = b, a
			}
			weights[i] = wmap[uint64(a)<<32|uint64(b)]
		}
	}
	return &WeightedGraph{offsets: base.offsets, adj: base.adj, weights: weights}, nil
}

var errNonPositiveWeight = errorString("graph: edge weight must be a finite positive number")

type errorString string

func (e errorString) Error() string { return string(e) }

// Unweighted returns the underlying unweighted graph (sharing storage).
func (g *WeightedGraph) Unweighted() *Graph {
	return &Graph{offsets: g.offsets, adj: g.adj}
}

// Weight returns the weight of edge {u, v} and whether the edge exists.
// Adjacency lists are sorted, so the lookup is a binary search.
func (g *WeightedGraph) Weight(u, v uint32) (float64, bool) {
	lo := g.offsets[u]
	i, ok := slices.BinarySearch(g.adj[lo:g.offsets[u+1]], v)
	if !ok {
		return 0, false
	}
	return g.weights[lo+int64(i)], true
}

// WeightedEdges returns the undirected weighted edge list in canonical
// (U, V) order.
func (g *WeightedGraph) WeightedEdges() []WeightedEdge {
	edges := make([]WeightedEdge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			if u := g.adj[i]; uint32(v) < u {
				edges = append(edges, WeightedEdge{U: uint32(v), V: u, W: g.weights[i]})
			}
		}
	}
	return edges
}

// RandomWeights lifts an unweighted graph to a weighted one with independent
// uniform weights in [lo, hi), deterministic in seed.
func RandomWeights(g *Graph, lo, hi float64, seed uint64) *WeightedGraph {
	if lo <= 0 || hi < lo {
		panic("graph: RandomWeights needs 0 < lo <= hi")
	}
	g = g.flat()
	weights := make([]float64, len(g.adj))
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			w := g.adj[i]
			a, b := uint32(v), w
			if a > b {
				a, b = b, a
			}
			// Same draw for both directions of the edge.
			u := xrand.Uniform01(seed, uint64(a)<<32|uint64(b))
			weights[i] = lo + u*(hi-lo)
		}
	}
	return &WeightedGraph{offsets: g.offsets, adj: g.adj, weights: weights}
}
