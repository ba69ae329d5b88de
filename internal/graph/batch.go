package graph

import (
	"fmt"
	"math"
	"sort"
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

// canonBatch canonicalizes one side of a batch: orients each edge U < V,
// drops self loops, sorts, and collapses duplicates. For weighted inserts
// the LAST duplicate's weight wins, matching FromWeightedEdges. Returns an
// error for out-of-range endpoints or non-positive weights (weighted).
func canonBatch(n int, edges []Edge, weights []float64) ([]Edge, []float64, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, nil, fmt.Errorf("graph: batch weight count %d does not match insert count %d", len(weights), len(edges))
	}
	out := make([]Edge, 0, len(edges))
	var outW []float64
	if weights != nil {
		outW = make([]float64, 0, len(edges))
	}
	for i, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if weights != nil {
			w := weights[i]
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, nil, fmt.Errorf("graph: batch insert (%d,%d) has non-positive weight %g", e.U, e.V, w)
			}
			outW = append(outW, w)
		}
		out = append(out, e)
	}
	// Stable sort by canonical key keeps the original order of duplicates,
	// so "last wins" is a backward scan over equal keys.
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return edgeKey(out[idx[i]]) < edgeKey(out[idx[j]]) })
	uniq := make([]Edge, 0, len(out))
	var uniqW []float64
	if weights != nil {
		uniqW = make([]float64, 0, len(out))
	}
	for i := 0; i < len(idx); i++ {
		// Take the last entry of each equal-key run.
		if i+1 < len(idx) && edgeKey(out[idx[i]]) == edgeKey(out[idx[i+1]]) {
			continue
		}
		uniq = append(uniq, out[idx[i]])
		if weights != nil {
			uniqW = append(uniqW, outW[idx[i]])
		}
	}
	return uniq, uniqW, nil
}

// searchEdge returns the position of v in the sorted neighbor list nb and
// whether it is present.
func searchEdge(nb []uint32, v uint32) (int, bool) {
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i, i < len(nb) && nb[i] == v
}

// deltaSet is the per-vertex adjacency change derived from a canonical
// batch: sorted neighbor ids to remove and to add.
type deltaSet struct {
	del []uint32
	add []uint32
	// addW aligns with add on weighted graphs; upd/updW are weight-only
	// changes (edge present, weight bits differ).
	addW []float64
	upd  []uint32
	updW []float64
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
	ins, insW, err := canonBatch(n, b.Insert, insW)
	if err != nil {
		return csrBuf{}, ApplyResult{}, err
	}
	del, _, err := canonBatch(n, b.Delete, nil)
	if err != nil {
		return csrBuf{}, ApplyResult{}, err
	}
	res := ApplyResult{}
	deltas := make(map[uint32]*deltaSet)
	delta := func(v uint32) *deltaSet {
		d := deltas[v]
		if d == nil {
			d = &deltaSet{}
			deltas[v] = d
		}
		return d
	}
	inserted := make(map[uint64]bool, len(ins))
	for _, e := range ins {
		inserted[edgeKey(e)] = true
	}
	for _, e := range del {
		if inserted[edgeKey(e)] {
			continue // delete-then-insert of the same edge: net no-op
		}
		if _, ok := searchEdge(adj[offsets[e.U]:offsets[e.U+1]], e.V); !ok {
			continue // absent: no-op
		}
		du, dv := delta(e.U), delta(e.V)
		du.del = append(du.del, e.V)
		dv.del = append(dv.del, e.U)
		res.Deleted = append(res.Deleted, e)
	}
	for i, e := range ins {
		if j, ok := searchEdge(adj[offsets[e.U]:offsets[e.U+1]], e.V); ok {
			if weights == nil || math.Float64bits(weights[offsets[e.U]+int64(j)]) == math.Float64bits(insW[i]) {
				continue // present (unweighted) or same weight bits: exact no-op
			}
			du, dv := delta(e.U), delta(e.V)
			du.upd = append(du.upd, e.V)
			du.updW = append(du.updW, insW[i])
			dv.upd = append(dv.upd, e.U)
			dv.updW = append(dv.updW, insW[i])
			res.Reweighted = append(res.Reweighted, e)
			continue
		}
		du, dv := delta(e.U), delta(e.V)
		du.add = append(du.add, e.V)
		dv.add = append(dv.add, e.U)
		if weights != nil {
			du.addW = append(du.addW, insW[i])
			dv.addW = append(dv.addW, insW[i])
		}
		res.Inserted = append(res.Inserted, e)
	}
	res.Dirty = dirtyList(deltas)
	return rebuildCSR(offsets, adj, weights, res.Dirty, deltas), res, nil
}

func dirtyList(deltas map[uint32]*deltaSet) []uint32 {
	dirty := make([]uint32, 0, len(deltas))
	for v := range deltas {
		dirty = append(dirty, v)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

type csrBuf struct {
	offsets []int64
	adj     []uint32
	weights []float64
}

// rebuildCSR merges the per-vertex deltas into a fresh CSR. dirty is the
// sorted key set of deltas; weights is nil for unweighted graphs. The rows
// between two dirty vertices are untouched, so each such run moves with
// one copy of adj (and of weights), and its offsets are the old ones
// shifted by the degree change of the dirty rows before it. Only dirty
// rows merge their sorted add/del lists: beyond the copies, the work is
// O(batch).
func rebuildCSR(offsets []int64, adj []uint32, weights []float64, dirty []uint32, deltas map[uint32]*deltaSet) csrBuf {
	n := len(offsets) - 1
	if n < 0 {
		n, offsets = 0, []int64{0} // the zero-value graph
	}
	var shift int64
	for _, v := range dirty {
		d := deltas[v]
		sortDelta(d)
		shift += int64(len(d.add) - len(d.del))
	}
	newOffsets := make([]int64, n+1)
	newAdj := make([]uint32, offsets[n]+shift)
	var newW []float64
	if weights != nil {
		newW = make([]float64, len(newAdj))
	}
	shift = 0
	lo := 0 // first row of the current untouched run
	for k := 0; ; k++ {
		hi := n // the run ends at the next dirty row, or after the last row
		if k < len(dirty) {
			hi = int(dirty[k])
		}
		a, b := offsets[lo], offsets[hi]
		copy(newAdj[a+shift:b+shift], adj[a:b])
		if weights != nil {
			copy(newW[a+shift:b+shift], weights[a:b])
		}
		for v := lo + 1; v <= hi; v++ {
			newOffsets[v] = offsets[v] + shift
		}
		if k == len(dirty) {
			break
		}
		v := hi
		d := deltas[uint32(v)]
		shift += int64(len(d.add) - len(d.del))
		newOffsets[v+1] = offsets[v+1] + shift
		lo = v + 1
		src := adj[offsets[v]:offsets[v+1]]
		dst := newAdj[newOffsets[v]:newOffsets[v+1]]
		var srcW, dstW []float64
		if weights != nil {
			srcW = weights[offsets[v]:offsets[v+1]]
			dstW = newW[newOffsets[v]:newOffsets[v+1]]
		}
		// Three sorted streams merge into dst: the old adjacency minus the
		// delete list, interleaved with the add list; weight updates rewrite
		// in place as the old stream is copied.
		di, ai, ui, o := 0, 0, 0, 0
		for i, u := range src {
			if di < len(d.del) && d.del[di] == u {
				di++
				continue
			}
			for ai < len(d.add) && d.add[ai] < u {
				dst[o] = d.add[ai]
				if weights != nil {
					dstW[o] = d.addW[ai]
				}
				ai++
				o++
			}
			dst[o] = u
			if weights != nil {
				w := srcW[i]
				if ui < len(d.upd) && d.upd[ui] == u {
					w = d.updW[ui]
					ui++
				}
				dstW[o] = w
			}
			o++
		}
		for ai < len(d.add) {
			dst[o] = d.add[ai]
			if weights != nil {
				dstW[o] = d.addW[ai]
			}
			ai++
			o++
		}
		if o != len(dst) {
			panic("graph: batch delta merge produced inconsistent degree")
		}
	}
	return csrBuf{offsets: newOffsets, adj: newAdj, weights: newW}
}

// sortDelta sorts each delta stream by neighbor id, keeping addW/updW
// aligned. The streams are tiny (per-vertex batch fan-in), so simple sorts
// suffice.
func sortDelta(d *deltaSet) {
	sort.Slice(d.del, func(i, j int) bool { return d.del[i] < d.del[j] })
	if d.addW == nil {
		sort.Slice(d.add, func(i, j int) bool { return d.add[i] < d.add[j] })
	} else {
		idx := make([]int, len(d.add))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return d.add[idx[i]] < d.add[idx[j]] })
		add := make([]uint32, len(d.add))
		addW := make([]float64, len(d.add))
		for o, i := range idx {
			add[o], addW[o] = d.add[i], d.addW[i]
		}
		d.add, d.addW = add, addW
	}
	if len(d.upd) > 1 {
		idx := make([]int, len(d.upd))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return d.upd[idx[i]] < d.upd[idx[j]] })
		upd := make([]uint32, len(d.upd))
		updW := make([]float64, len(d.upd))
		for o, i := range idx {
			upd[o], updW[o] = d.upd[i], d.updW[i]
		}
		d.upd, d.updW = upd, updW
	}
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
