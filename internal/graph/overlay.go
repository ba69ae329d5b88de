package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the persistent form ApplyBatch returns. A batch edits a
// handful of rows, so copying the whole CSR for it (O(n + m) bytes per
// update) would dominate an update whose partition fixpoint survives. An
// overlay graph instead shares a flat base CSR and holds, for each row the
// batches since that base rewrote, its full new neighbour list — the
// design of GraphOne's recent-edge log over archived adjacency (Kumar &
// Huang, FAST 2019) and of Aspen's functional snapshots (Dhulipala,
// Blelloch & Shun, PLDI 2019). Neighbors, Degree, HasEdge and Edges read
// through it; kernels that want the raw arrays get a flat CSR spliced
// once per graph on first use, after which it serves every read and the
// graph no longer holds its base.
//
// Two limits keep reads cheap and memory bounded. An overlay's base is
// always flat — a batch on an overlay copies the rows it carries forward
// (or starts from the input's own spliced CSR, once that exists) — so no
// chain of old CSRs stays reachable. And a batch that would grow the
// overlay past 1/overlayShare of the CSR it stands for is spliced into a
// flat graph instead.

// overlayShare bounds an overlay: once its rows and arcs together would
// pass 1/overlayShare of the base CSR's n+1 offsets and 2m arcs, ApplyBatch
// splices a flat CSR instead. A batch on an overlay copies every row the
// overlay carries, so an update costs O(batch + overlay), and the bound
// holds the overlay term to 1/overlayShare of a CSR copy; a read's binary
// search over the rows stays short. The value is measured by
// TestClearedStreamAllocs (root package), which inserts 2,000 distinct
// clearing edges into PA(100k, 4) and deletes none, so the level-0 overlay
// grows until it splices. At 16 or 32, op 1,053 already allocates 135 KB,
// past the 128 KiB a cleared op is allowed; at 64 no op but the three
// 4 MB splices allocates more than 72 KB, and the mean, splices included,
// is 40 KB.
const overlayShare = 64

// rowSet is a sorted set of replacement rows: row ids[i] of a graph
// becomes adj[off[i]:off[i+1]], with weights w[off[i]:off[i+1]] on a
// weighted graph (w is nil otherwise).
type rowSet struct {
	ids []uint32
	off []int64 // len(ids)+1
	adj []uint32
	w   []float64
}

// row returns the neighbours of the i-th row of s.
func (s *rowSet) row(i int) []uint32 { return s.adj[s.off[i]:s.off[i+1]] }

// overlay is the storage of a graph ApplyBatch returned as an overlay: its
// shape, and the view its reads go to. mu serializes the one splice.
type overlay struct {
	n    int
	arcs int64

	mu   sync.Mutex
	view atomic.Pointer[overlayView]
}

// overlayView is what an overlay graph reads: the flat base and the rows
// that replace some of base's rows. The splice swaps in a view of the
// spliced CSR with no rows, so a spliced graph keeps no old CSR alive.
type overlayView struct {
	base *Graph
	rows rowSet
}

// overlayRow is Neighbors on an overlay graph: the replacement row, else
// the base row (every row, once the graph is spliced).
func (g *Graph) overlayRow(v uint32) []uint32 {
	w := g.ov.view.Load()
	if i, ok := slices.BinarySearch(w.rows.ids, v); ok {
		return w.rows.row(i)
	}
	return w.base.adj[w.base.offsets[v]:w.base.offsets[v+1]]
}

// csr returns the overlay's flat CSR, splicing it on first use. Pool
// workers read one graph concurrently, so concurrent first callers wait
// on mu and all receive the one build.
func (o *overlay) csr() *Graph {
	if w := o.view.Load(); len(w.rows.ids) == 0 {
		return w.base
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.view.Load()
	if len(w.rows.ids) > 0 {
		buf := splice(w.base.offsets, w.base.adj, nil, &w.rows)
		w = &overlayView{base: &Graph{offsets: buf.offsets, adj: buf.adj}}
		o.view.Store(w)
	}
	return w.base
}

// layers returns the flat graph g reads through and the rows replacing
// some of its rows: g itself and no rows on a flat graph, and the spliced
// CSR and no rows on a spliced overlay.
func (g *Graph) layers() (*Graph, *rowSet) {
	if g.ov == nil {
		return g, nil
	}
	w := g.ov.view.Load()
	return w.base, &w.rows
}

// withRows returns base, a flat graph, with the rows of s replaced; arcs
// is the result's 2m. The result shares base's arrays when s is empty, is
// an overlay while s stays within the overlayShare bound, and is spliced
// into a flat CSR past it.
func withRows(base *Graph, s rowSet, arcs int64) *Graph {
	size := int64(len(base.offsets)) + base.NumArcs()
	switch {
	case len(s.ids) == 0 && len(base.offsets) > 0:
		return &Graph{offsets: base.offsets, adj: base.adj}
	case len(s.ids) > 0 && overlayShare*int64(len(s.ids)+len(s.adj)) <= size:
		o := &overlay{n: base.NumVertices(), arcs: arcs}
		o.view.Store(&overlayView{base: base, rows: s})
		return &Graph{ov: o}
	}
	buf := splice(base.offsets, base.adj, nil, &s)
	return &Graph{offsets: buf.offsets, adj: buf.adj}
}

// csrBuf is a flat CSR under construction; weights is nil for an
// unweighted graph.
type csrBuf struct {
	offsets []int64
	adj     []uint32
	weights []float64
}

// splice builds the flat CSR of (offsets, adj, weights) with the rows of s
// replaced; weights is nil for unweighted graphs. The rows between two
// replaced rows are untouched, so each such run moves with one copy of adj
// (and of weights), and its offsets are the old ones shifted by the degree
// change of the replaced rows before it: beyond the copies, the work is
// O(|s|). This is the one place a flat CSR is assembled from an edited
// graph — ApplyBatchWeighted's eager result, a past-the-bound ApplyBatch
// result, and an overlay's first raw read.
func splice(offsets []int64, adj []uint32, weights []float64, s *rowSet) csrBuf {
	n := len(offsets) - 1
	if n < 0 {
		n, offsets = 0, []int64{0} // the zero-value graph
	}
	total := offsets[n]
	for i, v := range s.ids {
		total += s.off[i+1] - s.off[i] - (offsets[v+1] - offsets[v])
	}
	newOffsets := make([]int64, n+1)
	newAdj := make([]uint32, total)
	var newW []float64
	if weights != nil {
		newW = make([]float64, total)
	}
	var shift int64
	lo := 0 // first row of the current untouched run
	for i := 0; ; i++ {
		hi := n // the run ends at the next replaced row, or after the last row
		if i < len(s.ids) {
			hi = int(s.ids[i])
		}
		a, b := offsets[lo], offsets[hi]
		copy(newAdj[a+shift:b+shift], adj[a:b])
		if weights != nil {
			copy(newW[a+shift:b+shift], weights[a:b])
		}
		for v := lo + 1; v <= hi; v++ {
			newOffsets[v] = offsets[v] + shift
		}
		if i == len(s.ids) {
			break
		}
		r0, r1 := s.off[i], s.off[i+1]
		at := newOffsets[hi]
		copy(newAdj[at:], s.adj[r0:r1])
		if weights != nil {
			copy(newW[at:], s.w[r0:r1])
		}
		shift += r1 - r0 - (offsets[hi+1] - offsets[hi])
		newOffsets[hi+1] = offsets[hi+1] + shift
		lo = hi + 1
	}
	return csrBuf{offsets: newOffsets, adj: newAdj, weights: newW}
}
