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
// vertices whose adjacency changed. g is not modified and stays valid.
//
// The result is persistent: it shares g's CSR and holds only the rows the
// batch (and the batches g itself came from) rewrote, so the call costs
// O(batch + overlay), not O(n + m). Its accessors read through those rows;
// Offsets, Adjacency and the package's raw-array kernels splice its flat
// CSR once, on first use (overlay.go). A batch that would grow the overlay
// past a fixed share of the graph returns the spliced graph directly.
//
// On a simple input (deduplicated adjacency, as built by FromEdgesDedup or
// the generators) the result is bit-identical to FromEdgesDedup over the
// updated edge list. A multigraph input (FromEdges keeps parallel edges,
// and so do ReadEdgeList and ReadBinary) is updated copy by copy: an edge
// both deleted and inserted by the batch is left unchanged, with all its
// copies; otherwise a delete removes one copy of its edge, however often
// the batch lists it, and an insert of an edge with a copy present is a
// no-op. The result is then FromEdges over the updated edge multiset.
func ApplyBatch(g *Graph, b Batch) (*Graph, ApplyResult, error) {
	base, over := g.layers()
	v := csrView{g: g, offsets: base.offsets, adj: base.adj, over: over}
	edits, res, err := v.batchEdits(g.NumVertices(), b)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	arcs := g.NumArcs() + 2*int64(len(res.Inserted)-len(res.Deleted))
	return withRows(base, v.apply(edits), arcs), res, nil
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
// updated weighted edge list. Unlike ApplyBatch, it returns a freshly
// spliced CSR: every effective weighted change re-derives a hierarchy from
// level 0, which reads the whole graph anyway.
func ApplyBatchWeighted(g *WeightedGraph, b Batch) (*WeightedGraph, ApplyResult, error) {
	if b.InsertW == nil && len(b.Insert) > 0 {
		return nil, ApplyResult{}, fmt.Errorf("graph: weighted batch requires InsertW weights for its %d inserts", len(b.Insert))
	}
	weights := g.weights
	if weights == nil {
		weights = []float64{} // an edgeless graph; nil would select the unweighted merge
	}
	v := csrView{offsets: g.offsets, adj: g.adj, weights: weights}
	edits, res, err := v.batchEdits(g.NumVertices(), b)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	rows := v.apply(edits)
	out := splice(g.offsets, g.adj, weights, &rows)
	return &WeightedGraph{offsets: out.offsets, adj: out.adj, weights: out.weights}, res, nil
}

// csrView is a graph as a batch reads and edits it. An unweighted graph
// (weights nil) is read through g, overlay included; offsets and adj are
// g's flat base and over the rows its overlay replaces (nil on a flat
// graph). Its batches ignore Batch.InsertW and treat inserting a present
// edge as a no-op. A weighted graph is the flat CSR (offsets, adj,
// weights) alone, with g and over nil.
type csrView struct {
	g       *Graph
	offsets []int64
	adj     []uint32
	weights []float64
	over    *rowSet
}

// row returns the neighbours of u as v has them, with their weights on a
// weighted graph.
func (v *csrView) row(u uint32) ([]uint32, []float64) {
	if v.weights == nil {
		return v.g.Neighbors(u), nil
	}
	a, b := v.offsets[u], v.offsets[u+1]
	return v.adj[a:b], v.weights[a:b]
}

// batchEdits canonicalizes b against the n-vertex graph v and returns its
// effective arc edits, sorted by (row, neighbour), with the ApplyResult
// that reports them.
func (v *csrView) batchEdits(n int, b Batch) ([]arcEdit, ApplyResult, error) {
	var insW []float64
	if v.weights != nil {
		insW = b.InsertW
	}
	ins, err := canonBatch(n, b.Insert, insW, opAdd)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	del, err := canonBatch(n, b.Delete, nil, opDelete)
	if err != nil {
		return nil, ApplyResult{}, err
	}
	var res ApplyResult
	edits := make([]arcEdit, 0, 2*(len(del)+len(ins)))
	for _, e := range del {
		if _, ok := slices.BinarySearchFunc(ins, e, cmpArc); ok {
			continue // delete-then-insert of the same edge: net no-op
		}
		nb, _ := v.row(e.U)
		if _, ok := slices.BinarySearch(nb, e.V); !ok {
			continue // absent: no-op
		}
		edits = append(edits, e, e.reverse())
		res.Deleted = append(res.Deleted, e.Edge)
	}
	for _, e := range ins {
		nb, ws := v.row(e.U)
		if j, ok := slices.BinarySearch(nb, e.V); !ok {
			res.Inserted = append(res.Inserted, e.Edge)
		} else if ws == nil || math.Float64bits(ws[j]) == math.Float64bits(e.w) {
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
	return edits, res, nil
}

// apply returns the rows of the graph v becomes under edits, arc edits
// sorted by (row, neighbour): each edited row merged with its run of
// edits, and every row of v.over the edits left alone. A merged overlay
// row equal to its base row again — the batch undid an earlier one — is
// dropped, so an overlay shrinks when an insert is undone.
func (v *csrView) apply(edits []arcEdit) rowSet {
	var over rowSet
	if v.over != nil {
		over = *v.over
	}
	// Size s up front: every carried row, plus every edited row at its old
	// length and its adds (a row both carried and edited counts twice).
	// Left to append, the 500-edge weighted batch of TestApplyBatchAllocs
	// allocates 70 times instead of 21.
	rows, arcs := len(over.ids), len(over.adj)
	for i, e := range edits {
		if i == 0 || edits[i-1].U != e.U {
			nb, _ := v.row(e.U)
			rows++
			arcs += len(nb)
		}
		if e.op == opAdd {
			arcs++
		}
	}
	s := rowSet{ids: make([]uint32, 0, rows), off: make([]int64, 1, rows+1), adj: make([]uint32, 0, arcs)}
	if v.weights != nil {
		s.w = make([]float64, 0, arcs)
	}
	// carry copies over's rows with ids below the bound into s; c is the
	// next one.
	c := 0
	carry := func(below int64) {
		for ; c < len(over.ids) && int64(over.ids[c]) < below; c++ {
			s.ids = append(s.ids, over.ids[c])
			s.adj = append(s.adj, over.row(c)...)
			s.off = append(s.off, int64(len(s.adj)))
		}
	}
	for len(edits) > 0 {
		u := edits[0].U
		k := 1 // edits[:k] is row u's run of edits
		for k < len(edits) && edits[k].U == u {
			k++
		}
		carry(int64(u))
		src, srcW := v.row(u)
		overlaid := c < len(over.ids) && over.ids[c] == u
		if overlaid {
			c++
		}
		start := len(s.adj)
		s.mergeRow(src, srcW, edits[:k], v.weights != nil)
		if overlaid && slices.Equal(s.adj[start:], v.adj[v.offsets[u]:v.offsets[u+1]]) {
			s.adj = s.adj[:start]
		} else {
			s.ids = append(s.ids, u)
			s.off = append(s.off, int64(len(s.adj)))
		}
		edits = edits[k:]
	}
	carry(math.MaxInt64)
	return s
}

// mergeRow appends to s the row src (with weights srcW when weighted)
// merged with run, its arc edits. Both are sorted by neighbour: adds slot
// in between the old arcs, and an edit naming an old arc deletes it or
// rewrites its weight.
func (s *rowSet) mergeRow(src []uint32, srcW []float64, run []arcEdit, weighted bool) {
	want := len(s.adj) + len(src)
	for _, e := range run {
		want += int(e.op)
	}
	put := func(u uint32, w float64) {
		s.adj = append(s.adj, u)
		if weighted {
			s.w = append(s.w, w)
		}
	}
	for i, u := range src {
		for ; len(run) > 0 && run[0].V < u; run = run[1:] {
			put(run[0].V, run[0].w)
		}
		var w float64
		if weighted {
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
	if len(s.adj) != want {
		panic("graph: batch edit merge produced inconsistent degree")
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
