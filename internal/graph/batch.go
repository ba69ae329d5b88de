package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Batch is a set of edge updates to apply to a graph: the unit of change of
// the incremental hierarchy maintenance layer (internal/hier,
// Hierarchy.UpdateCtx). Semantically the deletes are applied first, then the
// inserts, against a simple (deduplicated) graph — exactly the
// FromEdgesDedup edge-set algebra — so an edge listed in both Delete and
// Insert ends up present.
type Batch struct {
	// Insert lists edges to add. Inserting an edge that already exists is a
	// no-op on an unweighted graph; on a weighted graph it updates the
	// edge's weight (an upsert). Self loops are dropped, duplicates within
	// the list collapse, and {U,V} is the same edge as {V,U}.
	Insert []Edge
	// InsertW optionally carries the weight of each Insert entry, aligned
	// by index. Required (with positive weights) when applying to a
	// weighted graph; ignored for unweighted graphs.
	InsertW []float64
	// Delete lists edges to remove. Deleting an absent edge is a no-op.
	Delete []Edge
}

// Len returns the number of update entries in the batch (before
// canonicalization).
func (b Batch) Len() int { return len(b.Insert) + len(b.Delete) }

// edgeKey packs a canonical (u < v) edge into a sortable uint64.
func edgeKey(e Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// editOp is what an arcEdit does to its row, valued as the change it
// makes to the row's degree.
type editOp int8

const (
	opDelete   editOp = -1
	opReweight editOp = 0
	opAdd      editOp = 1
)

// arcEdit is one arc of an edge change: op applied to neighbor V in row
// U, with the arc's new weight w for adds and re-weights on weighted
// graphs. Both arcs of an effective change are separate edits.
type arcEdit struct {
	Edge
	op editOp
	w  float64
}

// reverse returns the same edit on the other arc of the edge.
func (a arcEdit) reverse() arcEdit {
	a.U, a.V = a.V, a.U
	return a
}

// cmpArc orders arc edits by (row, neighbor).
func cmpArc(a, b arcEdit) int { return cmp.Compare(edgeKey(a.Edge), edgeKey(b.Edge)) }

// canonBatch canonicalizes one side of a batch into edits with op:
// orients each edge U < V, drops self loops, sorts, and collapses
// duplicates. For weighted inserts the LAST duplicate's weight wins,
// matching FromWeightedEdges. Returns an error for out-of-range endpoints
// or non-positive weights (weighted).
func canonBatch(n int, edges []Edge, weights []float64, op editOp) ([]arcEdit, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graph: batch weight count %d does not match insert count %d", len(weights), len(edges))
	}
	out := make([]arcEdit, 0, len(edges))
	for i, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		a := arcEdit{Edge: e, op: op}
		if weights != nil {
			a.w = weights[i]
			if a.w <= 0 || math.IsNaN(a.w) || math.IsInf(a.w, 0) {
				return nil, fmt.Errorf("graph: batch insert (%d,%d) has non-positive weight %g", e.U, e.V, a.w)
			}
		}
		out = append(out, a)
	}
	// The stable sort keeps duplicates in batch order, so the last entry
	// of each equal run carries the winning weight.
	slices.SortStableFunc(out, cmpArc)
	uniq := out[:0]
	for i, a := range out {
		if i+1 < len(out) && out[i+1].Edge == a.Edge {
			continue
		}
		uniq = append(uniq, a)
	}
	return uniq, nil
}

// ApplyBatch applies b to g (deletes first, then inserts) and returns the
// updated graph together with the effective changes: the canonical edges
// actually removed and added (no-op entries dropped) and the sorted set of
// vertices whose adjacency changed. The input graph must be simple
// (deduplicated adjacency, as built by FromEdgesDedup or the generators);
// the result is then bit-identical to FromEdgesDedup over the updated edge
// list. g is not modified.
func ApplyBatch(g *Graph, b Batch) (*Graph, ApplyResult, error) {
	out, res, err := applyBatch(g.NumVertices(), g.offsets, g.adj, nil, b)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	return &Graph{offsets: out.offsets, adj: out.adj}, res, nil
}

// ApplyResult reports what an ApplyBatch call actually changed.
type ApplyResult struct {
	// Inserted and Deleted are the effective canonical (U < V) edge
	// changes, sorted; entries of the batch that were already present
	// (inserts), absent (deletes), self loops, or duplicates are dropped.
	Inserted []Edge
	Deleted  []Edge
	// Reweighted lists edges whose weight changed without a structural
	// change (weighted upserts only).
	Reweighted []Edge
	// Dirty is the sorted set of vertices whose adjacency (or incident
	// weights) changed.
	Dirty []uint32
}

// Unchanged reports whether the batch was a structural and weight no-op.
func (r ApplyResult) Unchanged() bool {
	return len(r.Inserted) == 0 && len(r.Deleted) == 0 && len(r.Reweighted) == 0
}

// ApplyBatchWeighted is ApplyBatch for weighted graphs: Batch.InsertW must
// align with Batch.Insert and carry positive weights. Inserting an existing
// edge updates its weight (reported in ApplyResult.Reweighted when the bits
// change); the result is bit-identical to FromWeightedEdges over the
// updated weighted edge list.
func ApplyBatchWeighted(g *WeightedGraph, b Batch) (*WeightedGraph, ApplyResult, error) {
	if b.InsertW == nil && len(b.Insert) > 0 {
		return nil, ApplyResult{}, fmt.Errorf("graph: weighted batch requires InsertW weights for its %d inserts", len(b.Insert))
	}
	weights := g.weights
	if weights == nil {
		weights = []float64{} // an edgeless graph; nil would select the unweighted merge
	}
	out, res, err := applyBatch(g.NumVertices(), g.offsets, g.adj, weights, b)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	return &WeightedGraph{offsets: out.offsets, adj: out.adj, weights: out.weights}, res, nil
}

// applyBatch is the body of ApplyBatch and ApplyBatchWeighted over the raw
// CSR arrays of an n-vertex graph; weights is nil for unweighted graphs,
// which ignore Batch.InsertW and treat inserting a present edge as a no-op.
func applyBatch(n int, offsets []int64, adj []uint32, weights []float64, b Batch) (csrBuf, ApplyResult, error) {
	var insW []float64
	if weights != nil {
		insW = b.InsertW
	}
	ins, err := canonBatch(n, b.Insert, insW, opAdd)
	if err != nil {
		return csrBuf{}, ApplyResult{}, err
	}
	del, err := canonBatch(n, b.Delete, nil, opDelete)
	if err != nil {
		return csrBuf{}, ApplyResult{}, err
	}
	var res ApplyResult
	edits := make([]arcEdit, 0, 2*(len(del)+len(ins)))
	for _, e := range del {
		if _, ok := slices.BinarySearchFunc(ins, e, cmpArc); ok {
			continue // delete-then-insert of the same edge: net no-op
		}
		if _, ok := slices.BinarySearch(adj[offsets[e.U]:offsets[e.U+1]], e.V); !ok {
			continue // absent: no-op
		}
		edits = append(edits, e, e.reverse())
		res.Deleted = append(res.Deleted, e.Edge)
	}
	for _, e := range ins {
		if j, ok := slices.BinarySearch(adj[offsets[e.U]:offsets[e.U+1]], e.V); !ok {
			res.Inserted = append(res.Inserted, e.Edge)
		} else if weights == nil || math.Float64bits(weights[offsets[e.U]+int64(j)]) == math.Float64bits(e.w) {
			continue // present (unweighted) or same weight bits: exact no-op
		} else {
			e.op = opReweight
			res.Reweighted = append(res.Reweighted, e.Edge)
		}
		edits = append(edits, e, e.reverse())
	}
	// Each arc appears at most once, so the sort needs no stability.
	slices.SortFunc(edits, cmpArc)
	res.Dirty = make([]uint32, 0, len(edits))
	for i, e := range edits {
		if i == 0 || edits[i-1].U != e.U {
			res.Dirty = append(res.Dirty, e.U)
		}
	}
	return rebuildCSR(offsets, adj, weights, edits), res, nil
}

type csrBuf struct {
	offsets []int64
	adj     []uint32
	weights []float64
}

// rebuildCSR applies the arc edits, sorted by (row, neighbor), to a fresh
// CSR; weights is nil for unweighted graphs. The rows between two edited
// rows are untouched, so each such run moves with one copy of adj (and of
// weights), and its offsets are the old ones shifted by the degree change
// of the edited rows before it. Only edited rows merge with their run of
// edits: beyond the copies, the work is O(batch).
func rebuildCSR(offsets []int64, adj []uint32, weights []float64, edits []arcEdit) csrBuf {
	n := len(offsets) - 1
	if n < 0 {
		n, offsets = 0, []int64{0} // the zero-value graph
	}
	var shift int64
	for _, e := range edits {
		shift += int64(e.op)
	}
	newOffsets := make([]int64, n+1)
	newAdj := make([]uint32, offsets[n]+shift)
	var newW []float64
	if weights != nil {
		newW = make([]float64, len(newAdj))
	}
	shift = 0
	lo := 0 // first row of the current untouched run
	for {
		hi := n // the run ends at the next edited row, or after the last row
		if len(edits) > 0 {
			hi = int(edits[0].U)
		}
		a, b := offsets[lo], offsets[hi]
		copy(newAdj[a+shift:b+shift], adj[a:b])
		if weights != nil {
			copy(newW[a+shift:b+shift], weights[a:b])
		}
		for v := lo + 1; v <= hi; v++ {
			newOffsets[v] = offsets[v] + shift
		}
		if len(edits) == 0 {
			break
		}
		v := hi
		k := 0 // edits[:k] is row v's run of edits
		for ; k < len(edits) && int(edits[k].U) == v; k++ {
			shift += int64(edits[k].op)
		}
		run := edits[:k]
		edits = edits[k:]
		newOffsets[v+1] = offsets[v+1] + shift
		lo = v + 1
		src := adj[offsets[v]:offsets[v+1]]
		dst := newAdj[newOffsets[v]:newOffsets[v+1]]
		var srcW, dstW []float64
		if weights != nil {
			srcW = weights[offsets[v]:offsets[v+1]]
			dstW = newW[newOffsets[v]:newOffsets[v+1]]
		}
		o := 0
		put := func(u uint32, w float64) {
			dst[o] = u
			if weights != nil {
				dstW[o] = w
			}
			o++
		}
		// The old row and its run are both sorted by neighbor: adds slot
		// in between the old arcs, and an edit naming an old arc deletes
		// it or rewrites its weight.
		for i, u := range src {
			for ; len(run) > 0 && run[0].V < u; run = run[1:] {
				put(run[0].V, run[0].w)
			}
			var w float64
			if weights != nil {
				w = srcW[i]
			}
			if len(run) > 0 && run[0].V == u {
				e := run[0]
				run = run[1:]
				if e.op == opDelete {
					continue
				}
				w = e.w
			}
			put(u, w)
		}
		for _, e := range run {
			put(e.V, e.w)
		}
		if o != len(dst) {
			panic("graph: batch edit merge produced inconsistent degree")
		}
	}
	return csrBuf{offsets: newOffsets, adj: newAdj, weights: newW}
}

// DiffCSR compares two graphs on the same vertex set and returns the
// canonical edges present only in old (del) and only in new (ins), plus
// whether the CSRs are bit-identical. The incremental hierarchy uses it to
// derive the next level's effective batch from a re-contracted quotient.
func DiffCSR(old, new_ *Graph) (ins, del []Edge, equal bool) {
	if old.NumVertices() != new_.NumVertices() {
		panic("graph: DiffCSR on different vertex counts")
	}
	equal = true
	n := old.NumVertices()
	for v := 0; v < n; v++ {
		a := old.Neighbors(uint32(v))
		b := new_.Neighbors(uint32(v))
		i, j := 0, 0
		for i < len(a) || j < len(b) {
			switch {
			case j == len(b) || (i < len(a) && a[i] < b[j]):
				equal = false
				if a[i] > uint32(v) {
					del = append(del, Edge{U: uint32(v), V: a[i]})
				}
				i++
			case i == len(a) || b[j] < a[i]:
				equal = false
				if b[j] > uint32(v) {
					ins = append(ins, Edge{U: uint32(v), V: b[j]})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
	return ins, del, equal
}
