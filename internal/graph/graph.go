// Package graph provides the graph substrate for the decomposition library:
// an immutable, persistent compressed-sparse-row (CSR) representation of
// undirected graphs, builders, synthetic generators covering the workload
// families used in the experiments, weighted variants, text/binary I/O,
// and basic structural utilities (degrees, connected components, induced
// subgraphs).
//
// Vertices are dense uint32 ids in [0, NumVertices()). Undirected edges are
// stored twice, once per direction, as is conventional for CSR; NumEdges
// reports the number of undirected edges.
//
// No graph is ever modified. ApplyBatch returns a new graph that shares
// its input's CSR and holds only the rows the batches since rewrote (an
// overlay, overlay.go), and the input stays valid. Every accessor reads
// through the overlay; the flat arrays Offsets and Adjacency expose are
// spliced once per graph, on first use. Every other constructor builds a
// flat CSR.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mpx/internal/parallel"
)

// Graph is an immutable undirected graph in CSR form: a flat CSR, or an
// overlay of one that ApplyBatch returned. The zero value is the empty
// graph.
type Graph struct {
	offsets []int64  // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []uint32 // concatenated neighbor lists, 2m entries
	// ov is set, and offsets and adj are not, on a graph ApplyBatch left
	// as an overlay of a flat one. Every accessor tests it first.
	ov *overlay
}

// Edge is an undirected edge between U and V.
type Edge struct {
	U, V uint32
}

// ErrVertexRange reports an edge endpoint outside [0, n).
var ErrVertexRange = errors.New("graph: edge endpoint out of vertex range")

// NumVertices returns n.
func (g *Graph) NumVertices() int {
	if g.ov != nil {
		return g.ov.n
	}
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int64 {
	return g.NumArcs() / 2
}

// NumArcs returns 2m, the number of directed arcs stored.
func (g *Graph) NumArcs() int64 {
	if g.ov != nil {
		return g.ov.arcs
	}
	return int64(len(g.adj))
}

// Degree returns the degree of v.
func (g *Graph) Degree(v uint32) int {
	if g.ov != nil {
		return len(g.overlayRow(v))
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor slice of v. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	if g.ov != nil {
		return g.overlayRow(v)
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Offsets exposes the CSR offset array (length n+1) for algorithms that
// iterate arcs directly. The slice must not be modified. On a graph
// ApplyBatch returned as an overlay, the first call (of Offsets,
// Adjacency, or any kernel that scans the raw arrays) splices the flat
// CSR, O(n + m) once; every later call and read uses it.
func (g *Graph) Offsets() []int64 { return g.flat().offsets }

// Adjacency exposes the CSR adjacency array (length 2m). The slice must not
// be modified. Like Offsets, it splices an overlay's flat CSR on first use.
func (g *Graph) Adjacency() []uint32 { return g.flat().adj }

// flat returns the flat CSR form of g: g itself, or an overlay's spliced
// CSR.
func (g *Graph) flat() *Graph {
	if g.ov != nil {
		return g.ov.csr()
	}
	return g
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > max {
			max = d
		}
	}
	return max
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// FromEdges builds a CSR graph on n vertices from an undirected edge list.
// Self loops are dropped (they can never be cut and carry no information for
// a decomposition); parallel edges are kept unless dedupe is requested via
// FromEdgesDedup. Endpoints must lie in [0, n).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return fromEdges(n, edges, false)
}

// FromEdgesDedup is FromEdges but collapses parallel edges.
func FromEdgesDedup(n int, edges []Edge) (*Graph, error) {
	return fromEdges(n, edges, true)
}

func fromEdges(n int, edges []Edge, dedupe bool) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, e.U, e.V, n)
		}
	}
	if dedupe && len(edges) > 0 {
		canon := make([]Edge, 0, len(edges))
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			canon = append(canon, e)
		}
		sort.Slice(canon, func(i, j int) bool {
			if canon[i].U != canon[j].U {
				return canon[i].U < canon[j].U
			}
			return canon[i].V < canon[j].V
		})
		uniq := canon[:0]
		for i, e := range canon {
			if i == 0 || e != canon[i-1] {
				uniq = append(uniq, e)
			}
		}
		edges = uniq
	}

	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]uint32, offsets[n])
	cursor := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[offsets[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[offsets[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &Graph{offsets: offsets, adj: adj}
	g.sortAdjacency()
	return g, nil
}

// sortAdjacency sorts every neighbor list; deterministic adjacency order
// keeps every downstream algorithm deterministic.
func (g *Graph) sortAdjacency() {
	n := g.NumVertices()
	parallel.Default().For(0, n, func(v int) {
		nb := g.adj[g.offsets[v]:g.offsets[v+1]]
		slices.Sort(nb)
	})
}

// Edges materializes the undirected edge list with U < V, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				out = append(out, Edge{uint32(v), w})
			}
		}
	}
	return out
}

// HasEdge reports whether {u, v} is an edge, via binary search on the sorted
// adjacency of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// along with the mapping from new ids to original ids. Vertices must be
// distinct and in range.
func (g *Graph) InducedSubgraph(vertices []uint32) (*Graph, []uint32, error) {
	n := g.NumVertices()
	remap := make(map[uint32]uint32, len(vertices))
	for i, v := range vertices {
		if int(v) >= n {
			return nil, nil, fmt.Errorf("%w: vertex %d", ErrVertexRange, v)
		}
		if _, dup := remap[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		remap[v] = uint32(i)
	}
	var edges []Edge
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if j, ok := remap[w]; ok && uint32(i) < j {
				edges = append(edges, Edge{uint32(i), j})
			}
		}
	}
	sub, err := FromEdges(len(vertices), edges)
	if err != nil {
		return nil, nil, err
	}
	orig := make([]uint32, len(vertices))
	copy(orig, vertices)
	return sub, orig, nil
}
