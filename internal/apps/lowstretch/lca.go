package lowstretch

import (
	"math/bits"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// lcaIndex is the O(1) LCA index Tree and WeightedTree share, in O(n)
// words: a block range-minimum query over the forest's DFS preorder
// (Bender and Farach-Colton, LATIN 2000; Fischer and Heun, CPM 2006).
//
// For vertices u ≠ v of one component with pre(u) < pre(v), every
// shallowest vertex at a position in (pre(u), pre(v)] is a child of
// LCA(u, v). Each position's key packs its vertex's depth above its
// parent, so the minimum key over that range holds the LCA in its low half
// and depth(LCA)+1 in its high half. The shallowest vertices share one
// key, so ties cannot change the answer. A range that crosses components
// holds a root, the only depth-0 key, which is how Dist tells them apart.
//
// Both trees embed the index by value, so queries load the same slices at
// the same offsets as a field of the tree itself.
type lcaIndex struct {
	pre []int32 // preorder position of each vertex
	// key[i] is depth<<32 | parent of the vertex at position i; a root is
	// its own parent.
	key []uint64
	// mask[i] is the monotone stack at i within its 64-position block: bit
	// j&63 is set for each position j ≤ i of the block whose key is at most
	// every key in (j, i]. Its lowest set bit at or above l&63 marks a
	// minimum of [l, i].
	mask []uint64
	// table is a sparse table over the block minima, flattened with stride
	// nblocks: table[k*nblocks+b] is the minimum key of blocks [b, b+2^k).
	table []uint64
}

// forestScratch is an index build's working memory: the forest's CSR
// adjacency and the DFS stack. Incremental keeps one across rebuilds; a
// built tree keeps none.
type forestScratch struct {
	offs  []uint32
	adj   []uint32
	adjW  []float64
	stack []dfsEntry
}

// dfsEntry is a vertex waiting on the DFS stack with the key its position
// will hold.
type dfsEntry struct {
	key uint64
	v   uint32
}

// build indexes the forest on n vertices with the given edges and returns
// its component count, reusing the index's arrays and s (nil means a
// throwaway scratch) where their capacity allows. It lays the edges out as
// a CSR adjacency, then runs a DFS from every still-unvisited vertex, in
// ascending order, that fills pre and key; the masks and the block table
// follow from the keys. w, when non-nil, holds each edge's weight, and
// wdepth (length n) receives each vertex's weighted depth from its
// component root. The DFS reaches every vertex by construction, and visits
// each once whatever cycles the edges hold, so a caller checks the forest
// invariant by edge count alone: acyclic and spanning means n - components
// edges. pre is an int32 and the CSR offsets uint32s, so n and len(edges)
// stay below 2^31.
func (x *lcaIndex) build(n int, edges []graph.Edge, w, wdepth []float64, s *forestScratch) int {
	if s == nil {
		s = new(forestScratch)
	}
	// offs[v] counts v's arcs, then becomes the end of v's run, and the
	// fill steps it back to the start.
	offs := parallel.Grow(s.offs, n+1)
	clear(offs)
	for _, e := range edges {
		offs[e.U]++
		offs[e.V]++
	}
	end := uint32(0)
	for v := range n {
		end += offs[v]
		offs[v] = end
	}
	offs[n] = end
	adj := parallel.Grow(s.adj, int(end))
	adjW := s.adjW
	if w != nil {
		adjW = parallel.Grow(adjW, int(end))
	}
	for i, e := range edges {
		offs[e.U]--
		offs[e.V]--
		adj[offs[e.U]], adj[offs[e.V]] = e.V, e.U
		if w != nil {
			adjW[offs[e.U]], adjW[offs[e.V]] = w[i], w[i]
		}
	}

	pre := parallel.Grow(x.pre, n)
	key := parallel.Grow(x.key, n)
	for i := range pre {
		pre[i] = -1
	}
	stack := s.stack
	pos, comps := int32(0), 0
	for root := range n {
		if pre[root] >= 0 {
			continue
		}
		comps++
		if wdepth != nil {
			wdepth[root] = 0
		}
		stack = append(stack[:0], dfsEntry{uint64(root), uint32(root)})
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v := e.v
			if pre[v] >= 0 {
				continue // reached twice: the edges hold a cycle
			}
			pre[v] = pos
			key[pos] = e.key
			pos++
			// In a forest every neighbour but the parent is a child; the
			// check above stops a cycle.
			parent, child := uint32(e.key), (e.key>>32+1)<<32|uint64(v)
			for i := offs[v]; i < offs[v+1]; i++ {
				if u := adj[i]; u != parent {
					if wdepth != nil {
						wdepth[u] = wdepth[v] + adjW[i]
					}
					stack = append(stack, dfsEntry{child, u})
				}
			}
		}
	}
	x.pre, x.key = pre, key
	*s = forestScratch{offs: offs, adj: adj, adjW: adjW, stack: stack}
	x.buildBlocks()
	return comps
}

// buildBlocks fills the in-block masks from the keys, then the sparse
// table over the block minima.
func (x *lcaIndex) buildBlocks() {
	key := x.key
	n := len(key)
	mask := parallel.Grow(x.mask, n)
	var cur uint64
	for i, k := range key {
		if i&63 == 0 {
			cur = 0
		}
		for cur != 0 {
			top := 63 - bits.LeadingZeros64(cur)
			if key[i&^63+top] <= k {
				break
			}
			cur &^= 1 << top
		}
		cur |= 1 << (i & 63)
		mask[i] = cur
	}
	x.mask = mask

	nb := (n + 63) >> 6
	rows := bits.Len(uint(nb))
	table := parallel.Grow(x.table, rows*nb)
	for b := range nb {
		last := min(b<<6|63, n-1)
		table[b] = key[b<<6+bits.TrailingZeros64(mask[last])]
	}
	for k := 1; k < rows; k++ {
		half := 1 << (k - 1)
		prev, row := table[(k-1)*nb:k*nb], table[k*nb:(k+1)*nb]
		for b := 0; b+2*half <= nb; b++ {
			row[b] = min(prev[b], prev[b+half])
		}
	}
	x.table = table
}

// minKey returns the minimum key over positions (a, b], a < b.
func (x *lcaIndex) minKey(a, b int32) uint64 {
	l, r := int(a)+1, int(b)
	lo := ^uint64(0) << (l & 63) // l's bit and those above it in its block
	bl, br := l>>6, r>>6
	if bl == br {
		return x.key[r&^63+bits.TrailingZeros64(x.mask[r]&lo)]
	}
	k := min(x.key[l&^63+bits.TrailingZeros64(x.mask[l|63]&lo)],
		x.key[r&^63+bits.TrailingZeros64(x.mask[r])])
	if bl++; bl < br { // whole blocks bl..br-1 lie between
		j := bits.Len(uint(br-bl)) - 1
		row := x.table[j*((len(x.key)+63)>>6):]
		k = min(k, row[bl], row[br-1<<j])
	}
	return k
}

// LCA returns the lowest common ancestor of u and v, which must lie in the
// same component.
func (x *lcaIndex) LCA(u, v uint32) uint32 {
	a, b := x.pre[u], x.pre[v]
	if a == b {
		return u
	}
	if a > b {
		a, b = b, a
	}
	return uint32(x.minKey(a, b))
}
