// Package bfs holds the serial search references the rest of the
// repository checks against and builds on: breadth-first search
// (Sequential), the double-sweep diameter estimate (PseudoDiameter) and
// binary-heap Dijkstra on weighted graphs (DijkstraWeighted). The parallel
// engines live in internal/core: Partition's push/pull claim rounds are the
// paper's Section 5 multi-source BFS over shifted start times, and
// PartitionWeightedParallel runs Δ-stepping.
package bfs

import (
	"math"

	"mpx/internal/graph"
)

// Unreached marks vertices not reached by a search.
const Unreached int32 = -1

// Sequential computes BFS distances from source; dist[v] == Unreached for
// unreachable vertices.
func Sequential(g *graph.Graph, source uint32) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = Unreached
	}
	sweep(g, source, dist, make([]uint32, 0, 64))
	return dist
}

// sweep runs a BFS from source over dist, in which Unreached marks the
// unvisited vertices, and appends the vertices it visits to queue in BFS
// order (so the last one appended is a farthest one).
func sweep(g *graph.Graph, source uint32, dist []int32, queue []uint32) []uint32 {
	dist[source] = 0
	queue = append(queue, source)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == Unreached {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// PseudoDiameter estimates the diameter with the standard double-sweep
// heuristic, run on every connected component: BFS from the component's
// smallest vertex, then BFS from the farthest vertex found (the smallest
// one on ties). It returns the largest second-sweep eccentricity over all
// components, which is exact when every component is a tree. Each vertex
// is visited by exactly two sweeps, so the pass is O(n+m).
func PseudoDiameter(g *graph.Graph) int32 {
	n := g.NumVertices()
	first := make([]int32, n) // first-sweep distances, doubling as visited marks
	second := make([]int32, n)
	for i := range first {
		first[i] = Unreached
		second[i] = Unreached
	}
	queue := make([]uint32, 0, 64)
	var best int32
	for s := 0; s < n; s++ {
		if first[s] != Unreached {
			continue
		}
		queue = sweep(g, uint32(s), first, queue[:0])
		far := uint32(s)
		for _, v := range queue {
			if first[v] > first[far] || (first[v] == first[far] && v < far) {
				far = v
			}
		}
		queue = sweep(g, far, second, queue[:0])
		if ecc := second[queue[len(queue)-1]]; ecc > best {
			best = ecc
		}
	}
	return best
}

// DijkstraWeighted computes single-source shortest-path distances on a
// weighted graph with a binary heap; used as the oracle for the weighted
// partition tests. Unreachable vertices get +Inf.
func DijkstraWeighted(g *graph.WeightedGraph, source uint32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	h := &floatHeap{}
	h.push(heapItem{0, source})
	for h.len() > 0 {
		it := h.pop()
		if it.key > dist[it.v] {
			continue
		}
		nbrs, ws := g.Neighbors(it.v)
		for i, u := range nbrs {
			if nd := it.key + ws[i]; nd < dist[u] {
				dist[u] = nd
				h.push(heapItem{nd, u})
			}
		}
	}
	return dist
}

type heapItem struct {
	key float64
	v   uint32
}

// floatHeap is a minimal binary min-heap on (key, v); container/heap is
// avoided to keep the hot loop allocation-free.
type floatHeap struct {
	items []heapItem
}

func (h *floatHeap) len() int { return len(h.items) }

func (h *floatHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].key <= h.items[i].key {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *floatHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].key < h.items[small].key {
			small = l
		}
		if r < last && h.items[r].key < h.items[small].key {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
