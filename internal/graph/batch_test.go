package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpx/internal/xrand"
)

// edgeSet collects g's canonical edges into a map for set comparisons.
func edgeSet(g *Graph) map[uint64]bool {
	s := make(map[uint64]bool)
	for _, e := range g.Edges() {
		s[edgeKey(e)] = true
	}
	return s
}

// applyReference recomputes the updated edge list the slow way: edge set of
// g, minus deletes, plus inserts, rebuilt with FromEdgesDedup.
func applyReference(t *testing.T, g *Graph, b Batch) *Graph {
	t.Helper()
	s := edgeSet(g)
	for _, e := range b.Delete {
		a, c := e.U, e.V
		if a > c {
			a, c = c, a
		}
		delete(s, uint64(a)<<32|uint64(c))
	}
	for _, e := range b.Insert {
		if e.U == e.V {
			continue
		}
		a, c := e.U, e.V
		if a > c {
			a, c = c, a
		}
		s[uint64(a)<<32|uint64(c)] = true
	}
	edges := make([]Edge, 0, len(s))
	for k := range s {
		edges = append(edges, Edge{U: uint32(k >> 32), V: uint32(k)})
	}
	ref, err := FromEdgesDedup(g.NumVertices(), edges)
	if err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	return ref
}

func mustGrid(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	return Grid2D(rows, cols)
}

func randomBatch(t *testing.T, g *Graph, seed uint64, nIns, nDel int) Batch {
	t.Helper()
	n := uint64(g.NumVertices())
	var b Batch
	for i := 0; i < nIns; i++ {
		u := uint32(xrand.Mix(seed, uint64(i)*2+1) % n)
		v := uint32(xrand.Mix(seed, uint64(i)*2+2) % n)
		b.Insert = append(b.Insert, Edge{U: u, V: v})
	}
	edges := g.Edges()
	for i := 0; i < nDel && len(edges) > 0; i++ {
		b.Delete = append(b.Delete, edges[xrand.Mix(seed, 0x1000+uint64(i))%uint64(len(edges))])
	}
	return b
}

func TestApplyBatchMatchesRebuild(t *testing.T) {
	g := mustGrid(t, 17, 13)
	for trial := uint64(0); trial < 25; trial++ {
		b := randomBatch(t, g, 0xb47c*trial+trial, 12, 9)
		// Sprinkle in self loops and duplicates, which must be no-ops.
		b.Insert = append(b.Insert, Edge{U: 5, V: 5}, b.Insert[0], b.Insert[0])
		b.Delete = append(b.Delete, b.Delete[0])
		checkApplyBatch(t, fmt.Sprintf("trial %d", trial), g, b)
	}
	for _, tc := range runBoundaryCases(t) {
		checkApplyBatch(t, tc.name, tc.g, tc.b)
	}
}

// checkApplyBatch applies b to g and requires the CSR to equal the
// FromEdgesDedup rebuild and the ApplyResult to hold (checkApplyResult).
func checkApplyBatch(t *testing.T, tag string, g *Graph, b Batch) {
	t.Helper()
	got, res, err := ApplyBatch(g, b)
	if err != nil {
		t.Fatalf("%s: ApplyBatch: %v", tag, err)
	}
	want := applyReference(t, g, b)
	if !graphsEqual(got, want) {
		t.Fatalf("%s: ApplyBatch CSR differs from FromEdgesDedup rebuild", tag)
	}
	checkApplyResult(t, tag, g, got, res)
}

// checkApplyResult requires res, the ApplyResult of the batch that took g
// to got, to reconcile the two edge sets exactly, and Dirty to be exactly
// the endpoints of its changes, sorted. It reads g and got through Edges
// and NumEdges only, so an overlay stays unspliced.
func checkApplyResult(t *testing.T, tag string, g, got *Graph, res ApplyResult) {
	t.Helper()
	before, after := edgeSet(g), edgeSet(got)
	for _, e := range res.Inserted {
		if before[edgeKey(e)] || !after[edgeKey(e)] {
			t.Fatalf("%s: Inserted edge (%d,%d) inconsistent", tag, e.U, e.V)
		}
	}
	for _, e := range res.Deleted {
		if !before[edgeKey(e)] || after[edgeKey(e)] {
			t.Fatalf("%s: Deleted edge (%d,%d) inconsistent", tag, e.U, e.V)
		}
	}
	if int64(len(before)+len(res.Inserted)-len(res.Deleted)) != got.NumEdges() {
		t.Fatalf("%s: effective change counts don't reconcile edge counts", tag)
	}
	// Dirty must be exactly the endpoints of the effective changes.
	wantDirty := make(map[uint32]bool)
	for _, e := range res.Inserted {
		wantDirty[e.U], wantDirty[e.V] = true, true
	}
	for _, e := range res.Deleted {
		wantDirty[e.U], wantDirty[e.V] = true, true
	}
	if len(wantDirty) != len(res.Dirty) {
		t.Fatalf("%s: dirty count %d, want %d", tag, len(res.Dirty), len(wantDirty))
	}
	for i, v := range res.Dirty {
		if !wantDirty[v] {
			t.Fatalf("%s: unexpected dirty vertex %d", tag, v)
		}
		if i > 0 && res.Dirty[i-1] >= v {
			t.Fatalf("%s: dirty list not sorted strictly", tag)
		}
	}
}

// runBoundaryCase is a fixed batch pinning one edge of ApplyBatch's run
// copy: which rows start and end the copied runs of untouched rows, and
// what those runs hold.
type runBoundaryCase struct {
	name string
	g    *Graph
	b    Batch
}

// runBoundaryCases returns the fixed run-boundary batches. The 12-vertex
// graph is a path 0-1-2-3, a path 7-8-9-10-11, the edges {0,11} and {0,7},
// and the isolated vertices 4, 5 and 6; the 6-vertex graph is the single
// edge {2,3} with isolated rows at both ends.
func runBoundaryCases(t *testing.T) []runBoundaryCase {
	t.Helper()
	g12, err := FromEdgesDedup(12, []Edge{{0, 1}, {1, 2}, {2, 3}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {0, 11}, {0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	g6, err := FromEdgesDedup(6, []Edge{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	g0, err := FromEdgesDedup(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []runBoundaryCase{
		{"dirty rows 0 and n-1", g12, Batch{Delete: []Edge{{0, 11}}}},
		{"insert between rows 0 and n-1", g12, Batch{Insert: []Edge{{11, 1}, {0, 2}}}},
		{"adjacent dirty rows at the start", g12, Batch{Delete: []Edge{{0, 1}}}},
		{"adjacent dirty rows at the end", g12, Batch{Delete: []Edge{{10, 11}}}},
		{"adjacent dirty rows in the middle", g12, Batch{Insert: []Edge{{4, 5}}, Delete: []Edge{{8, 9}}}},
		{"row deleted to degree 0", g12, Batch{Delete: []Edge{{2, 3}}}},
		{"middle row deleted to degree 0", g12, Batch{Delete: []Edge{{1, 2}, {2, 3}}}},
		{"isolated rows inside a copied run", g12, Batch{Insert: []Edge{{3, 8}}}},
		{"every row dirty", g12, Batch{
			Insert: []Edge{{3, 4}, {5, 6}, {2, 9}, {1, 3}},
			Delete: []Edge{{0, 7}, {10, 11}, {7, 8}},
		}},
		{"isolated first and last rows gain edges", g6, Batch{Insert: []Edge{{0, 5}}}},
		{"last edge deleted", g6, Batch{Delete: []Edge{{2, 3}}}},
		{"n = 0", g0, Batch{}},
		{"zero-value graph", &Graph{}, Batch{}},
	}
}

func TestApplyBatchNoOps(t *testing.T) {
	g := mustGrid(t, 4, 4)
	// Insert existing edge, delete absent edge, self loop, and a
	// delete+insert of the same (absent) edge: all net no-ops.
	b := Batch{
		Insert: []Edge{{0, 1}, {3, 3}, {0, 5}},
		Delete: []Edge{{0, 15}, {0, 5}},
	}
	got, res, err := ApplyBatch(g, b)
	if err != nil {
		t.Fatal(err)
	}
	wantIns := 1 // {0,5} deleted-then-inserted; absent before, so one real insert
	if len(res.Inserted) != wantIns || len(res.Deleted) != 0 {
		t.Fatalf("effective = +%d/-%d, want +%d/-0", len(res.Inserted), len(res.Deleted), wantIns)
	}
	if res.Unchanged() {
		t.Fatal("Unchanged() true despite an effective insert")
	}
	if got.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("edges = %d, want %d", got.NumEdges(), g.NumEdges()+1)
	}
	// A pure no-op batch must report Unchanged and an identical CSR.
	got2, res2, err := ApplyBatch(g, Batch{Insert: []Edge{{0, 1}}, Delete: []Edge{{0, 15}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Unchanged() || !graphsEqual(got2, g) {
		t.Fatal("no-op batch changed the graph")
	}
}

func TestApplyBatchRangeError(t *testing.T) {
	g := mustGrid(t, 3, 3)
	if _, _, err := ApplyBatch(g, Batch{Insert: []Edge{{0, 9}}}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("insert out of range: err = %v, want ErrVertexRange", err)
	}
	if _, _, err := ApplyBatch(g, Batch{Delete: []Edge{{42, 0}}}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("delete out of range: err = %v, want ErrVertexRange", err)
	}
}

func TestApplyBatchWeightedMatchesRebuild(t *testing.T) {
	base := mustGrid(t, 9, 8)
	wg := RandomWeights(base, 1, 10, 7)
	for trial := uint64(0); trial < 25; trial++ {
		b := randomBatch(t, base, 0x77ab+trial, 10, 6)
		for i := range b.Insert {
			b.InsertW = append(b.InsertW, 1+float64(xrand.Mix(trial, uint64(i))%1000)/100)
		}
		checkApplyBatchWeighted(t, fmt.Sprintf("trial %d", trial), wg, b)
	}
	// The unweighted run-boundary batches on weighted copies of their
	// graphs, plus weight-only upserts, which dirty a row without
	// changing its degree.
	cases := runBoundaryCases(t)
	g12 := cases[0].g
	cases = append(cases,
		runBoundaryCase{"reweight rows 0 and n-1", g12, Batch{Insert: []Edge{{11, 0}}}},
		runBoundaryCase{"reweight and insert in one row", g12, Batch{Insert: []Edge{{1, 0}, {0, 5}, {7, 0}}}},
	)
	for i, tc := range cases {
		b := tc.b
		for j := range b.Insert {
			b.InsertW = append(b.InsertW, 2+float64(j)/4)
		}
		checkApplyBatchWeighted(t, tc.name, RandomWeights(tc.g, 1, 10, uint64(i)), b)
	}
}

// checkApplyBatchWeighted applies b to wg and requires the CSR to equal
// the FromWeightedEdges rebuild of the updated weighted edge list, and
// every reweighted edge to have been present before.
func checkApplyBatchWeighted(t *testing.T, tag string, wg *WeightedGraph, b Batch) {
	t.Helper()
	got, res, err := ApplyBatchWeighted(wg, b)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	// Reference: updated weighted edge list through FromWeightedEdges.
	wmap := make(map[uint64]float64)
	for _, e := range wg.WeightedEdges() {
		wmap[uint64(e.U)<<32|uint64(e.V)] = e.W
	}
	for _, e := range b.Delete {
		a, c := e.U, e.V
		if a > c {
			a, c = c, a
		}
		delete(wmap, uint64(a)<<32|uint64(c))
	}
	for i, e := range b.Insert {
		if e.U == e.V {
			continue
		}
		a, c := e.U, e.V
		if a > c {
			a, c = c, a
		}
		wmap[uint64(a)<<32|uint64(c)] = b.InsertW[i]
	}
	wes := make([]WeightedEdge, 0, len(wmap))
	for k, w := range wmap {
		wes = append(wes, WeightedEdge{U: uint32(k >> 32), V: uint32(k), W: w})
	}
	want, err := FromWeightedEdges(wg.NumVertices(), wes)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	if !weightedGraphsEqual(got, want) {
		t.Fatalf("%s: weighted CSR differs from FromWeightedEdges rebuild", tag)
	}
	for _, e := range res.Reweighted {
		if _, ok := wg.Weight(e.U, e.V); !ok {
			t.Fatalf("%s: Reweighted edge (%d,%d) was not present before", tag, e.U, e.V)
		}
	}
}

func TestApplyBatchWeightedUpsert(t *testing.T) {
	wg, err := FromWeightedEdges(3, []WeightedEdge{{0, 1, 2.5}, {1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := ApplyBatchWeighted(wg, Batch{
		Insert:  []Edge{{1, 0}, {0, 2}},
		InsertW: []float64{9.25, 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inserted) != 1 || len(res.Reweighted) != 1 {
		t.Fatalf("effective = +%d/~%d, want +1/~1", len(res.Inserted), len(res.Reweighted))
	}
	if w, ok := got.Weight(0, 1); !ok || w != 9.25 {
		t.Fatalf("upsert weight = %v,%v want 9.25", w, ok)
	}
	if w, ok := got.Weight(0, 2); !ok || w != 1.5 {
		t.Fatalf("insert weight = %v,%v want 1.5", w, ok)
	}
	// Re-upserting the identical bits is a no-op.
	_, res2, err := ApplyBatchWeighted(got, Batch{Insert: []Edge{{0, 1}}, InsertW: []float64{9.25}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Unchanged() {
		t.Fatal("identical-weight upsert not a no-op")
	}
	// Weighted inserts without weights, and bad weights, must error.
	if _, _, err := ApplyBatchWeighted(wg, Batch{Insert: []Edge{{0, 2}}}); err == nil {
		t.Fatal("missing InsertW accepted")
	}
	if _, _, err := ApplyBatchWeighted(wg, Batch{Insert: []Edge{{0, 2}}, InsertW: []float64{-1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestApplyBatchWeightedNilWeights inserts into an edgeless weighted graph
// adopted with a nil weight array: the batch must still be validated and
// carry its weights into the result.
func TestApplyBatchWeightedNilWeights(t *testing.T) {
	wg, err := FromWeightedCSR([]int64{0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyBatchWeighted(wg, Batch{Insert: []Edge{{0, 1}}, InsertW: []float64{-1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	got, _, err := ApplyBatchWeighted(wg, Batch{Insert: []Edge{{0, 1}}, InsertW: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Weights()) != len(got.Adjacency()) {
		t.Fatalf("%d weights for %d arcs", len(got.Weights()), len(got.Adjacency()))
	}
	if w, ok := got.Weight(0, 1); !ok || w != 2 {
		t.Fatalf("insert weight = %v,%v want 2", w, ok)
	}
}

func TestDiffCSR(t *testing.T) {
	g := mustGrid(t, 5, 5)
	same, err := FromEdgesDedup(g.NumVertices(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if ins, del, eq := DiffCSR(g, same); !eq || len(ins) != 0 || len(del) != 0 {
		t.Fatalf("identical graphs diff: eq=%v +%d -%d", eq, len(ins), len(del))
	}
	b := Batch{Insert: []Edge{{0, 24}, {3, 17}}, Delete: []Edge{{0, 1}}}
	updated, _, err := ApplyBatch(g, b)
	if err != nil {
		t.Fatal(err)
	}
	ins, del, eq := DiffCSR(g, updated)
	if eq || len(ins) != 2 || len(del) != 1 {
		t.Fatalf("diff = eq=%v +%d -%d, want eq=false +2 -1", eq, len(ins), len(del))
	}
	// Round-trip: applying the diff to g must reproduce updated exactly.
	back, _, err := ApplyBatch(g, Batch{Insert: ins, Delete: del})
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(back, updated) {
		t.Fatal("applying DiffCSR output does not reproduce the target graph")
	}
}

// Satellite: FromEdgesDedup edge cases that become load-bearing under
// ApplyBatch (duplicates, self loops, out-of-range, empty input).
func TestFromEdgesDedupEdgeCases(t *testing.T) {
	// Empty input and zero vertices.
	g, err := FromEdgesDedup(0, nil)
	if err != nil || g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty: n=%d m=%d err=%v", g.NumVertices(), g.NumEdges(), err)
	}
	g, err = FromEdgesDedup(5, nil)
	if err != nil || g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("edgeless: n=%d m=%d err=%v", g.NumVertices(), g.NumEdges(), err)
	}
	// Duplicates in both orientations plus self loops collapse/drop.
	g, err = FromEdgesDedup(4, []Edge{
		{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {3, 3}, {2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 1) || g.HasEdge(2, 2) || g.HasEdge(3, 3) {
		t.Fatal("dedup graph has wrong edge set")
	}
	if g.Degree(3) != 0 {
		t.Fatalf("self-loop vertex degree = %d, want 0", g.Degree(3))
	}
	// Out-of-range endpoints error.
	if _, err := FromEdgesDedup(3, []Edge{{0, 3}}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out of range: err = %v, want ErrVertexRange", err)
	}
	// Adjacency comes out sorted (binary-searchable), required by ApplyBatch.
	g, err = FromEdgesDedup(4, []Edge{{3, 0}, {1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	if len(nb) != 3 {
		t.Fatalf("degree(0) = %d, want 3", len(nb))
	}
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatal("adjacency not strictly sorted")
		}
	}
	// Dedup of a pre-deduplicated graph's edge list is the identity — the
	// invariant ApplyBatch's bit-identity contract stands on.
	grid := mustGrid(t, 6, 7)
	again, err := FromEdgesDedup(grid.NumVertices(), grid.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(grid, again) {
		t.Fatal("FromEdgesDedup not idempotent on a simple graph")
	}
}

// Satellite: InducedSubgraph edge cases.
func TestInducedSubgraphEdgeCases(t *testing.T) {
	g := mustGrid(t, 3, 3)
	// Empty vertex set: empty graph, empty id map.
	sub, ids, err := g.InducedSubgraph(nil)
	if err != nil || sub.NumVertices() != 0 || sub.NumEdges() != 0 || len(ids) != 0 {
		t.Fatalf("empty selection: n=%d m=%d ids=%v err=%v", sub.NumVertices(), sub.NumEdges(), ids, err)
	}
	// Duplicate vertex must error, not silently mangle the relabeling.
	if _, _, err := g.InducedSubgraph([]uint32{0, 1, 0}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	// Out-of-range vertex must error.
	if _, _, err := g.InducedSubgraph([]uint32{0, 99}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out of range: err = %v, want ErrVertexRange", err)
	}
	// A single vertex induces the empty graph on one vertex.
	sub, ids, err = g.InducedSubgraph([]uint32{4})
	if err != nil || sub.NumVertices() != 1 || sub.NumEdges() != 0 || len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("singleton: n=%d m=%d ids=%v err=%v", sub.NumVertices(), sub.NumEdges(), ids, err)
	}
	// The top-left 2x2 corner of the 3x3 grid induces a 4-cycle, relabeled
	// in selection order.
	sub, ids, err = g.InducedSubgraph([]uint32{0, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 4 || sub.NumEdges() != 4 {
		t.Fatalf("2x2 corner: n=%d m=%d, want 4/4", sub.NumVertices(), sub.NumEdges())
	}
	for v := uint32(0); v < 4; v++ {
		if sub.Degree(v) != 2 {
			t.Fatalf("2x2 corner: degree(%d) = %d, want 2", v, sub.Degree(v))
		}
	}
	for i, want := range []uint32{0, 1, 3, 4} {
		if ids[i] != want {
			t.Fatalf("ids[%d] = %d, want %d", i, ids[i], want)
		}
	}
}

// TestApplyBatchMultigraph pins ApplyBatch on a multigraph, the input
// FromEdges, ReadEdgeList and ReadBinary build and `mpx -in FILE -updates`
// passes on: a chain of batches must give FromEdges of the expected edge
// multiset at every step. The 1000-vertex graph keeps its edges on
// vertices 0-3, so every step that changes it leaves an overlay of the
// input graph, read through before its twin is spliced.
func TestApplyBatchMultigraph(t *testing.T) {
	const n = 1000
	g, err := FromEdges(n, []Edge{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rest := []Edge{{1, 2}, {2, 3}, {3, 0}, {1, 3}}
	steps := []struct {
		name     string
		b        Batch
		ins, del int
		want     []Edge
	}{
		{"delete and insert of one edge in one batch", Batch{Insert: []Edge{{0, 1}}, Delete: []Edge{{0, 1}}}, 0, 0,
			append([]Edge{{0, 1}, {0, 1}}, rest...)},
		{"insert of a present edge", Batch{Insert: []Edge{{1, 0}}}, 0, 0,
			append([]Edge{{0, 1}, {0, 1}}, rest...)},
		{"a delete listed twice removes one copy", Batch{Delete: []Edge{{1, 0}, {0, 1}}}, 0, 1,
			append([]Edge{{0, 1}}, rest...)},
		{"a second delete removes the last copy", Batch{Delete: []Edge{{0, 1}}}, 0, 1,
			rest},
		{"insert", Batch{Insert: []Edge{{0, 1}, {0, 2}}}, 2, 0,
			append([]Edge{{0, 1}, {0, 2}}, rest...)},
		{"delete of a simple edge", Batch{Delete: []Edge{{0, 1}, {3, 1}}}, 0, 2,
			[]Edge{{0, 2}, {1, 2}, {2, 3}, {3, 0}}},
	}
	cur := g
	for _, st := range steps {
		got, res, err := ApplyBatch(cur, st.b)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if len(res.Inserted) != st.ins || len(res.Deleted) != st.del {
			t.Fatalf("%s: +%d/-%d, want +%d/-%d", st.name, len(res.Inserted), len(res.Deleted), st.ins, st.del)
		}
		if !res.Unchanged() && got.ov == nil {
			t.Fatalf("%s: the result was spliced, not left as an overlay", st.name)
		}
		ref, err := FromEdges(n, st.want)
		if err != nil {
			t.Fatal(err)
		}
		checkReads(t, st.name, got, ref)
		twin, _, err := ApplyBatch(cur, st.b)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(twin, ref) {
			t.Fatalf("%s: CSR differs from FromEdges of the expected multiset", st.name)
		}
		cur = got
	}
}

// TestApplyBatchAllocs gates ApplyBatch's allocations on 500-edge batches
// of a 350×300 grid and on a one-edge insert. A batch costs its canonical
// and edit slices, the result lists and the new CSR, independent of the
// number of dirty rows.
func TestApplyBatchAllocs(t *testing.T) {
	g := mustGrid(t, 350, 300)
	var picked []Edge
	for i, e := range g.Edges() {
		if i%37 == 0 && len(picked) < 500 {
			picked = append(picked, e)
		}
	}
	without, _, err := ApplyBatch(g, Batch{Delete: picked})
	if err != nil {
		t.Fatal(err)
	}
	wg := RandomWeights(g, 1, 10, 3)
	reweight := Batch{Insert: picked, InsertW: make([]float64, len(picked))}
	for i := range reweight.InsertW {
		reweight.InsertW[i] = 11 + float64(i)
	}
	n := uint32(g.NumVertices())
	cases := []struct {
		name  string
		apply func() (ApplyResult, error)
		gate  float64
	}{
		{"500-edge delete", func() (ApplyResult, error) {
			_, res, err := ApplyBatch(g, Batch{Delete: picked})
			return res, err
		}, 64},
		{"500-edge insert", func() (ApplyResult, error) {
			_, res, err := ApplyBatch(without, Batch{Insert: picked})
			return res, err
		}, 64},
		{"500-edge weighted re-weight", func() (ApplyResult, error) {
			_, res, err := ApplyBatchWeighted(wg, reweight)
			return res, err
		}, 64},
		{"one-edge insert", func() (ApplyResult, error) {
			_, res, err := ApplyBatch(g, Batch{Insert: []Edge{{0, n - 1}}})
			return res, err
		}, 16},
	}
	for _, tc := range cases {
		res, err := tc.apply()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Unchanged() {
			t.Fatalf("%s: the batch changed nothing", tc.name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tc.apply(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.gate {
			t.Errorf("%s: %.0f allocations, gate %.0f", tc.name, allocs, tc.gate)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
	}
}

// FuzzApplyBatch applies fuzzer-chosen batches to a random graph on up to
// 128 vertices, unweighted and weighted, and checks both against a
// from-scratch rebuild. Each 3-byte record of ops is one batch entry: the
// low bit of its first byte picks delete or insert, the rest of that byte
// the insert's weight, and the next two bytes its endpoints modulo n, so
// self loops, duplicates, deletes of absent edges, inserts of present
// edges and delete-then-insert pairs all occur. The graph's weights and
// the insert weights share the lattice k/4, so a weighted upsert can
// repeat an edge's weight bits exactly.
//
// The weighted arm applies the records as one batch. The unweighted arm
// splits them into 1 + seed>>62 consecutive batches and applies them in
// sequence, so overlays stack, shrink when a later batch undoes an
// insert, and cross the splice bound (checkChainStep).
func FuzzApplyBatch(f *testing.F) {
	f.Add(uint8(10), uint8(20), uint64(1), []byte{0, 1, 2, 1, 1, 2, 0, 3, 3, 2, 1, 2})
	f.Add(uint8(4), uint8(15), uint64(2), []byte{2, 0, 5, 5, 5, 0, 1, 0, 5, 6, 0, 5, 1, 4, 4})
	f.Add(uint8(0), uint8(0), uint64(3), []byte{})
	// Four batches on GNM(128, 255), whose vertices 19, 28, 34, 62, 72, 95,
	// 114, 121 and 122 are isolated, so an overlay may hold 9 rows and
	// arcs: two inserts left as a four-row overlay; the undo of one of
	// them, which shrinks it to the other's two rows; an insert on the
	// spliced twin; and three inserts that pass the splice bound.
	f.Add(uint8(126), uint8(255), uint64(3<<62|2729), []byte{
		0, 19, 28, 0, 34, 62, 0, 19, 28,
		1, 19, 28, 1, 72, 95, 0, 34, 62,
		0, 72, 95, 0, 72, 95, 0, 72, 95,
		0, 114, 121, 0, 122, 19, 0, 28, 34,
	})
	f.Fuzz(func(t *testing.T, nb, mb uint8, seed uint64, ops []byte) {
		n := 2 + int(nb)%127
		g := GNM(n, int64(mb)%(int64(n)*int64(n-1)/2+1), seed)
		var wes []WeightedEdge
		for i, e := range g.Edges() {
			wes = append(wes, WeightedEdge{U: e.U, V: e.V, W: float64(1+xrand.Mix(seed, uint64(i))%8) / 4})
		}
		wg, err := FromWeightedEdges(n, wes)
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		var starts []int // the first Insert and Delete index of each record
		for ; len(ops) >= 3; ops = ops[3:] {
			starts = append(starts, len(b.Insert), len(b.Delete))
			e := Edge{U: uint32(int(ops[1]) % n), V: uint32(int(ops[2]) % n)}
			if ops[0]&1 == 1 {
				b.Delete = append(b.Delete, e)
				continue
			}
			b.Insert = append(b.Insert, e)
			b.InsertW = append(b.InsertW, float64(1+ops[0]>>1)/4)
		}
		checkApplyBatchWeighted(t, "weighted", wg, b)

		recs := len(starts) / 2
		starts = append(starts, len(b.Insert), len(b.Delete))
		k := 1 + int(seed>>62)
		cur, want := g, edgeSet(g)
		for i := 0; i < k; i++ {
			lo, hi := i*recs/k, (i+1)*recs/k
			step := Batch{
				Insert: b.Insert[starts[2*lo]:starts[2*hi]],
				Delete: b.Delete[starts[2*lo+1]:starts[2*hi+1]],
			}
			// Odd steps go on from a spliced twin of their result, even
			// steps from the result itself, unspliced.
			cur = checkChainStep(t, fmt.Sprintf("unweighted batch %d/%d", i+1, k), cur, step, want, i%2 == 1)
		}
	})
}

// checkChainStep applies b to g, whose canonical edge set is want, and
// updates want to the expected result. The result must read, through
// NumEdges, Degree, Neighbors and HasEdge over every pair, exactly as the
// FromEdgesDedup rebuild of want does, and its ApplyResult must hold
// (checkApplyResult), before anything splices it; a twin from the same
// call must then show the rebuild's Offsets, Adjacency and Fingerprint.
// It returns the twin when spliced is set, else the result.
func checkChainStep(t *testing.T, tag string, g *Graph, b Batch, want map[uint64]bool, spliced bool) *Graph {
	t.Helper()
	got, res, err := ApplyBatch(g, b)
	if err != nil {
		t.Fatalf("%s: ApplyBatch: %v", tag, err)
	}
	for _, e := range b.Delete {
		delete(want, edgeKey(Edge{U: min(e.U, e.V), V: max(e.U, e.V)}))
	}
	for _, e := range b.Insert {
		if e.U != e.V {
			want[edgeKey(Edge{U: min(e.U, e.V), V: max(e.U, e.V)})] = true
		}
	}
	edges := make([]Edge, 0, len(want))
	for k := range want {
		edges = append(edges, Edge{U: uint32(k >> 32), V: uint32(k)})
	}
	ref, err := FromEdgesDedup(g.NumVertices(), edges)
	if err != nil {
		t.Fatalf("%s: reference rebuild: %v", tag, err)
	}
	checkReads(t, tag, got, ref)
	checkApplyResult(t, tag, g, got, res)
	twin, _, err := ApplyBatch(g, b)
	if err != nil {
		t.Fatalf("%s: second ApplyBatch: %v", tag, err)
	}
	if !graphsEqual(twin, ref) || twin.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("%s: spliced CSR differs from the FromEdgesDedup rebuild", tag)
	}
	if spliced {
		return twin
	}
	return got
}

// checkReads requires every accessor that reads through an overlay to
// answer on got as on ref: NumVertices, NumEdges, Degree and Neighbors per
// vertex, and HasEdge over every pair.
func checkReads(t *testing.T, tag string, got, ref *Graph) {
	t.Helper()
	n := ref.NumVertices()
	if got.NumVertices() != n || got.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", tag, got.NumVertices(), got.NumEdges(), n, ref.NumEdges())
	}
	for v := uint32(0); v < uint32(n); v++ {
		if got.Degree(v) != ref.Degree(v) || !slices.Equal(got.Neighbors(v), ref.Neighbors(v)) {
			t.Fatalf("%s: row %d = %v (degree %d), want %v", tag, v, got.Neighbors(v), got.Degree(v), ref.Neighbors(v))
		}
		for u := uint32(0); u < uint32(n); u++ {
			if got.HasEdge(u, v) != ref.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d, %d) = %v", tag, u, v, got.HasEdge(u, v))
			}
		}
	}
}
