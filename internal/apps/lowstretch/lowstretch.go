// Package lowstretch builds low-stretch spanning trees with the
// decompose-and-contract scheme of Alon, Karp, Peleg and West (AKPW), using
// the paper's Partition as the decomposition step — the application the
// paper names as its main target (the tree-embedding pipeline behind the
// parallel SDD solvers of Blelloch et al.).
//
// Each level runs a low-diameter decomposition of the current (contracted)
// graph, adds every cluster's BFS tree to the spanning forest — mapped back
// to original edges — and contracts clusters into super-vertices. Because
// each level keeps only the O(β) fraction of cut edges, the hierarchy has
// O(log n / log(1/β))-ish depth and the resulting tree stretches an average
// edge by a polylog factor, versus the Θ(diameter) stretch a naive BFS tree
// can suffer.
//
// The decompose-and-contract loop runs on the internal/hier engine: every
// level's Partition, edge classification and contraction execute on the
// shared parallel.Pool, tree edges map back to original coordinates
// through the engine's edge annotations, and output is bit-identical
// across worker counts and traversal directions.
package lowstretch

import (
	"context"
	"errors"
	"slices"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Tree is a spanning forest of the original graph with LCA-based distance
// queries.
type Tree struct {
	// G is the original graph.
	G *graph.Graph
	// Edges are the tree edges (original vertex ids).
	Edges []graph.Edge
	// Levels is the number of decompose-and-contract levels used.
	Levels int
	// Stats summarizes each hierarchy level (sizes, clusters, cut).
	Stats []hier.LevelStat

	lcaIndex
}

// BuildPoolCtx constructs a low-stretch spanning forest of g with
// decomposition parameter beta at every level. Every level of the
// decompose-and-contract hierarchy — Partition, edge classification,
// contraction, annotation — executes on pool (nil means
// parallel.Default()) via the internal/hier engine, with workers logical
// workers (<= 0 means GOMAXPROCS) and traversal direction dir. For a fixed
// (g, beta, seed) the resulting forest is bit-identical at every worker
// count and direction. ctx (nil means never cancelled) is polled at every
// hierarchy level and partition-round boundary, and a cancelled build
// returns (nil, ctx.Err()) with no partial tree. Panics escaping the
// pooled kernels surface as *parallel.PanicError errors; see
// docs/robustness.md.
//
// It is BuildIncrementalPoolCtx with the retained hierarchy dropped.
func BuildPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64, workers int, dir core.Direction) (*Tree, error) {
	inc, err := BuildIncrementalPoolCtx(ctx, pool, g, beta, seed, workers, dir)
	if err != nil {
		return nil, err
	}
	return inc.Tree(), nil
}

// BFSTree returns the baseline spanning forest: a plain BFS tree from the
// smallest vertex of each component. Used as the comparison arm of
// experiment E12.
func BFSTree(g *graph.Graph) (*Tree, error) {
	n := g.NumVertices()
	t := &Tree{G: g}
	visited := make([]bool, n)
	var queue []uint32
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], uint32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					t.Edges = append(t.Edges, graph.Edge{U: v, V: u})
					queue = append(queue, u)
				}
			}
		}
	}
	t.Levels = 1
	if err := t.index(nil); err != nil {
		return nil, err
	}
	return t, nil
}

// index builds the LCA index over the tree edges, with s as its scratch
// (nil means a throwaway one), and verifies the edge set is a spanning
// forest.
func (t *Tree) index(s *forestScratch) error {
	n := t.G.NumVertices()
	if n == 0 {
		return nil
	}
	if comps := t.build(n, t.Edges, nil, nil, s); len(t.Edges) != n-comps {
		return errors.New("lowstretch: edge set is not a spanning forest")
	}
	return nil
}

// appendTreeEdges appends the edge from every vertex of lv to its parent
// (its cluster tree's edges) to dst in original coordinates, in vertex
// order. It counts the edges first, so dst grows once.
func appendTreeEdges(dst []graph.Edge, lv *hier.Level, parent []uint32) []graph.Edge {
	k := 0
	for v, p := range parent {
		if p != uint32(v) {
			k++
		}
	}
	dst = slices.Grow(dst, k)
	for v, p := range parent {
		if p != uint32(v) {
			dst = append(dst, lv.OrigEdge(uint32(v), p))
		}
	}
	return dst
}

// Dist returns the tree distance between u and v, or -1 if they lie in
// different components.
func (t *Tree) Dist(u, v uint32) int32 {
	a, b := t.pre[u], t.pre[v]
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	k := t.minKey(a, b)
	if k>>32 == 0 {
		return -1 // the range holds a root: different components
	}
	return int32(t.key[a]>>32) + int32(t.key[b]>>32) - 2*(int32(k>>32)-1)
}

// StretchStats summarizes edge stretch over the whole edge set: for every
// original edge {u,v}, its stretch is Dist(u,v) (the edge has length 1).
type StretchStats struct {
	Edges int64
	Mean  float64
	Max   int32
	Total float64
}

// Stretch computes exact stretch statistics over every original edge using
// O(1) LCA queries.
func (t *Tree) Stretch() StretchStats {
	var st StretchStats
	for v := 0; v < t.G.NumVertices(); v++ {
		for _, u := range t.G.Neighbors(uint32(v)) {
			if uint32(v) >= u {
				continue
			}
			d := t.Dist(uint32(v), u)
			if d < 0 {
				continue // different components cannot happen for real edges
			}
			st.Edges++
			st.Total += float64(d)
			if d > st.Max {
				st.Max = d
			}
		}
	}
	if st.Edges > 0 {
		st.Mean = st.Total / float64(st.Edges)
	}
	return st
}
