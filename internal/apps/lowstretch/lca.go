package lowstretch

import (
	"math/bits"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// lcaIndex is the O(1) LCA index Tree and WeightedTree share: an Euler
// tour of the forest plus a sparse table of depth minima over it. Both
// trees embed it by value, so queries load the same slices at the same
// offsets as a field of the tree itself.
type lcaIndex struct {
	depth []int32
	order []int32 // first visit position of each vertex in the Euler tour
	euler []uint32
	// sparse is the LCA sparse table over euler positions (min by depth),
	// flattened into one stride-indexed backing array: row k occupies
	// sparse[k*sstride : k*sstride + len(euler) - (1<<k) + 1]. One flat
	// allocation and no per-row pointer chase on the query path — the
	// layout the high-QPS oracle batch kernels read.
	sparse  []uint32
	sstride int
	comp    []int32 // connected component labels (forest support)

	// pool/workers drive the parallel index build (each sparse-table row
	// is an independent elementwise min-scan over the previous row). A nil
	// pool means parallel.Default(); queries never touch the pool.
	pool    *parallel.Pool
	workers int
}

// build indexes the forest on n vertices with the given edges and returns
// its component count. It lays the edges out as a CSR adjacency — two flat
// allocations instead of O(n) per-vertex append churn (the E22 alloc gate
// watches this path) — then an iterative DFS from every still-unvisited
// vertex, in ascending order, emits the Euler tour and fills depth, order
// and comp, and the sparse table is rebuilt. w, when non-nil, holds each
// edge's weight, and wdepth (length n) receives each vertex's weighted
// depth from its component root. The DFS reaches every vertex by
// construction, so a caller checks the forest invariant by edge count
// alone: acyclic and spanning means n - components edges.
func (x *lcaIndex) build(n int, edges []graph.Edge, w, wdepth []float64) int {
	offs := make([]int64, n+1)
	for _, e := range edges {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	flat := make([]uint32, offs[n])
	var flatW []float64
	if w != nil {
		flatW = make([]float64, offs[n])
	}
	cursor := make([]int64, n)
	for i, e := range edges {
		a := offs[e.U] + cursor[e.U]
		cursor[e.U]++
		b := offs[e.V] + cursor[e.V]
		cursor[e.V]++
		flat[a], flat[b] = e.V, e.U
		if w != nil {
			flatW[a], flatW[b] = w[i], w[i]
		}
	}

	x.depth = make([]int32, n)
	x.order = make([]int32, n)
	x.comp = make([]int32, n)
	for i := range x.order {
		x.order[i] = -1
		x.comp[i] = -1
	}
	x.euler = x.euler[:0]
	comp := int32(0)
	type frame struct {
		v    uint32
		next int64
	}
	var stack []frame
	for root := 0; root < n; root++ {
		if x.order[root] != -1 {
			continue
		}
		stack = append(stack[:0], frame{uint32(root), offs[root]})
		x.depth[root] = 0
		if wdepth != nil {
			wdepth[root] = 0
		}
		x.comp[root] = comp
		x.order[root] = int32(len(x.euler))
		x.euler = append(x.euler, uint32(root))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.next < offs[f.v+1] {
				i := f.next
				u := flat[i]
				f.next++
				if x.order[u] != -1 {
					continue
				}
				x.depth[u] = x.depth[f.v] + 1
				if wdepth != nil {
					wdepth[u] = wdepth[f.v] + flatW[i]
				}
				x.comp[u] = comp
				x.order[u] = int32(len(x.euler))
				x.euler = append(x.euler, u)
				stack = append(stack, frame{u, offs[u]})
				advanced = true
				break
			}
			if !advanced {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					x.euler = append(x.euler, stack[len(stack)-1].v)
				}
			}
		}
		comp++
	}
	x.buildSparse()
	return int(comp)
}

// buildSparse fills the flattened sparse table: row 0 is the Euler tour,
// row k the elementwise depth-min of row k-1 with itself shifted by
// 2^(k-1). Rows build in order, but every element of a row is independent,
// so each row is one parallel sweep on the pool — the index build is
// O(m log m) work at O(log m) additional depth, with a single backing
// allocation reused across rebuilds. Values are bit-identical to the
// serial per-row construction: the min-scan reads only the previous row.
func (x *lcaIndex) buildSparse() {
	m := len(x.euler)
	x.sstride = m
	if m == 0 {
		x.sparse = x.sparse[:0]
		return
	}
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	if cap(x.sparse) < levels*m {
		x.sparse = make([]uint32, levels*m)
	}
	x.sparse = x.sparse[:levels*m]
	copy(x.sparse[:m], x.euler)
	depth := x.depth
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		prev := x.sparse[(k-1)*m : k*m]
		row := x.sparse[k*m : k*m+m-2*half+1]
		x.pool.ForRange(x.workers, len(row), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := prev[i], prev[i+half]
				if depth[a] <= depth[b] {
					row[i] = a
				} else {
					row[i] = b
				}
			}
		})
	}
}

// LCA returns the lowest common ancestor of u and v, which must lie in the
// same component.
func (x *lcaIndex) LCA(u, v uint32) uint32 {
	a, b := x.order[u], x.order[v]
	if a > b {
		a, b = b, a
	}
	k := bits.Len32(uint32(b-a+1)) - 1
	base := k * x.sstride
	y, z := x.sparse[base+int(a)], x.sparse[base+int(b)-(1<<k)+1]
	if x.depth[y] <= x.depth[z] {
		return y
	}
	return z
}
