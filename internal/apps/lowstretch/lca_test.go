package lowstretch

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// refForest is the naive reference for the LCA index: each component
// rooted at its smallest vertex, the root the index's DFS picks, with
// parent pointers, depths and weighted depths, queried by a parent-pointer
// walk.
type refForest struct {
	parent []uint32
	depth  []int32
	wdepth []float64
	comps  int
}

// newRefForest roots the forest with the given edges (and weights w, nil
// meaning none) by a BFS from each still-unreached vertex in ascending
// order. A child's weighted depth is its parent's plus the edge weight,
// the same sum the index computes.
func newRefForest(n int, edges []graph.Edge, w []float64) *refForest {
	type arc struct {
		u uint32
		w float64
	}
	adj := make([][]arc, n)
	for i, e := range edges {
		wi := 0.0
		if w != nil {
			wi = w[i]
		}
		adj[e.U] = append(adj[e.U], arc{e.V, wi})
		adj[e.V] = append(adj[e.V], arc{e.U, wi})
	}
	r := &refForest{parent: make([]uint32, n), depth: make([]int32, n), wdepth: make([]float64, n)}
	seen := make([]bool, n)
	var queue []uint32
	for s := range n {
		if seen[s] {
			continue
		}
		r.comps++
		seen[s] = true
		r.parent[s] = uint32(s)
		queue = append(queue[:0], uint32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range adj[v] {
				if !seen[a.u] {
					seen[a.u] = true
					r.parent[a.u] = v
					r.depth[a.u] = r.depth[v] + 1
					r.wdepth[a.u] = r.wdepth[v] + a.w
					queue = append(queue, a.u)
				}
			}
		}
	}
	return r
}

// lca walks u and v up to their lowest common ancestor; ok is false when
// they lie in different components.
func (r *refForest) lca(u, v uint32) (l uint32, ok bool) {
	for r.depth[u] > r.depth[v] {
		u = r.parent[u]
	}
	for r.depth[v] > r.depth[u] {
		v = r.parent[v]
	}
	for u != v {
		if r.depth[u] == 0 {
			return 0, false
		}
		u, v = r.parent[u], r.parent[v]
	}
	return u, true
}

// checkPair compares LCA, Tree.Dist and, when wt is non-nil, the weighted
// Dist bits against the reference for one pair.
func checkPair(t *testing.T, ref *refForest, x *lcaIndex, tr *Tree, wt *WeightedTree, u, v uint32) {
	t.Helper()
	l, ok := ref.lca(u, v)
	wantD, wantW := int32(-1), -1.0
	if ok {
		if got := x.LCA(u, v); got != l {
			t.Fatalf("LCA(%d, %d) = %d, reference %d", u, v, got, l)
		}
		wantD = ref.depth[u] + ref.depth[v] - 2*ref.depth[l]
		wantW = ref.wdepth[u] + ref.wdepth[v] - 2*ref.wdepth[l]
	}
	if got := tr.Dist(u, v); got != wantD {
		t.Fatalf("Dist(%d, %d) = %d, reference %d", u, v, got, wantD)
	}
	if wt != nil {
		if got := wt.Dist(u, v); math.Float64bits(got) != math.Float64bits(wantW) {
			t.Fatalf("weighted Dist(%d, %d) = %v, reference %v", u, v, got, wantW)
		}
	}
}

// blockEdgePairs returns every pair of vertices whose positions sit at the
// first two or last two positions of a 64-position block, or at the last
// position: their ranges (pre(u), pre(v)] start or end exactly on a block
// edge, or just inside one.
func blockEdgePairs(x *lcaIndex) [][2]uint32 {
	n := len(x.pre)
	at := make([]uint32, n)
	for v, p := range x.pre {
		at[p] = uint32(v)
	}
	var vs []uint32
	for p := range n {
		if o := p & 63; o <= 1 || o >= 62 || p == n-1 {
			vs = append(vs, at[p])
		}
	}
	var pairs [][2]uint32
	for _, u := range vs {
		for _, v := range vs {
			pairs = append(pairs, [2]uint32{u, v})
		}
	}
	return pairs
}

// checkTreeAnswers pins a built tree's answers to the reference on its own
// edges: every block-edge pair plus 2,000 random ones.
func checkTreeAnswers(t *testing.T, tr *Tree, seed uint64) {
	t.Helper()
	n := tr.G.NumVertices()
	ref := newRefForest(n, tr.Edges, nil)
	for _, p := range blockEdgePairs(&tr.lcaIndex) {
		checkPair(t, ref, &tr.lcaIndex, tr, nil, p[0], p[1])
	}
	rng := xrand.NewSplitMix64(seed)
	for range 2000 {
		checkPair(t, ref, &tr.lcaIndex, tr, nil, uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
}

// TestFlattenedSparseTableBitIdentical pins the answers of the block RMQ
// over preorder keys (whose block minima sit in a flattened sparse table)
// to the parent-pointer reference: LCA and Dist on block-edge and random
// pairs, connected and disconnected, on built low-stretch trees.
func TestFlattenedSparseTableBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(40, 37)},
		{"gnm", graph.GNM(3000, 9000, 7)},
		{"path", graph.Path(513)},
		{"forest", graph.GNM(800, 500, 3)}, // disconnected: multiple components
		{"single", graph.Path(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := BuildPoolCtx(nil, nil, tc.g, 0.2, 5, 4, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			checkTreeAnswers(t, tr, 11)
		})
	}
}

// TestFlattenedSparseTableWeightedBitIdentical is the weighted pin: LCA and
// the weighted Dist bits of a built AKPW forest against the reference's
// weighted depths.
func TestFlattenedSparseTableWeightedBitIdentical(t *testing.T) {
	g := graph.GNM(2000, 6000, 9)
	wg := graph.RandomWeights(g, 1, 16, 4)
	wt, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 2, 4, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := wg.NumVertices()
	edges := make([]graph.Edge, len(wt.Edges))
	w := make([]float64, len(wt.Edges))
	for i, e := range wt.Edges {
		edges[i], w[i] = graph.Edge{U: e.U, V: e.V}, e.W
	}
	ref := newRefForest(n, edges, w)
	tr := &Tree{lcaIndex: wt.lcaIndex}
	for _, p := range blockEdgePairs(&wt.lcaIndex) {
		checkPair(t, ref, &wt.lcaIndex, tr, wt, p[0], p[1])
	}
	rng := xrand.NewSplitMix64(13)
	for range 2000 {
		checkPair(t, ref, &wt.lcaIndex, tr, wt, uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
}

// TestSparseRebuildAtWorkerCounts pins the index arrays — pre, key, mask
// and the block table, plus the weighted depths — to be identical at
// workers 1/2/8, unweighted and weighted.
func TestSparseRebuildAtWorkerCounts(t *testing.T) {
	g := graph.Grid2D(50, 31)
	wg := graph.RandomWeights(graph.GNM(1500, 4500, 2), 1, 8, 3)
	var ref, wref *lcaIndex
	var wdref []float64
	same := func(a, b *lcaIndex) bool {
		return slices.Equal(a.pre, b.pre) && slices.Equal(a.key, b.key) &&
			slices.Equal(a.mask, b.mask) && slices.Equal(a.table, b.table)
	}
	for _, w := range []int{1, 2, 8} {
		tr, err := BuildPoolCtx(nil, nil, g, 0.15, 3, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 3, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, wref, wdref = &tr.lcaIndex, &wt.lcaIndex, wt.wdepth
			continue
		}
		if !same(&tr.lcaIndex, ref) {
			t.Fatalf("workers=%d: the index arrays differ from workers=1", w)
		}
		if !same(&wt.lcaIndex, wref) || !slices.Equal(wt.wdepth, wdref) {
			t.Fatalf("workers=%d: the weighted index arrays differ from workers=1", w)
		}
	}
}

// TestIndexRejectsNonForest feeds both trees' index edge lists that are
// not spanning forests — a cycle through every vertex (exactly n edges),
// a triangle beside isolated vertices, a doubled edge, a self-loop and
// more edges than vertices — and wants an error from each, and none from
// a path.
func TestIndexRejectsNonForest(t *testing.T) {
	const n = 5
	g := graph.Path(n)
	wg := graph.RandomWeights(g, 1, 4, 1)
	for _, tc := range []struct {
		name   string
		edges  []graph.Edge
		forest bool
	}{
		{"path", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}, true},
		{"cycle", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}, false},
		{"triangle", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, false},
		{"double", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}, false},
		{"self-loop", []graph.Edge{{U: 0, V: 1}, {U: 2, V: 2}}, false},
		{"dense", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, {U: 0, V: 2}}, false},
	} {
		tr := &Tree{G: g, Edges: tc.edges}
		if err := tr.index(nil); (err == nil) != tc.forest {
			t.Errorf("%s: Tree.index = %v, forest %v", tc.name, err, tc.forest)
		}
		wt := &WeightedTree{G: wg}
		if err := wt.index(tc.edges, make([]float64, len(tc.edges))); (err == nil) != tc.forest {
			t.Errorf("%s: WeightedTree.index = %v, forest %v", tc.name, err, tc.forest)
		}
	}
}

// fuzzForest draws a forest on n vertices of one of five shapes, relabels
// it by a random permutation (so the roots the index picks are not the
// generator's), and returns its edges in random order and orientation with
// generic weights (whose sums are order-sensitive):
//   - 0: a random recursive tree cut into components at random vertices;
//   - 1: a path, cut into a few long pieces that span many blocks;
//   - 2: stars, a new centre every 200 vertices or so;
//   - 3: single vertices, no edges;
//   - 4: a caterpillar: each vertex hangs off the previous one or a random
//     earlier one.
func fuzzForest(n int, shape uint8, seed uint64) ([]graph.Edge, []float64) {
	rng := xrand.NewSplitMix64(seed)
	var edges []graph.Edge
	centre := 0
	for v := 1; v < n; v++ {
		p := -1
		switch shape % 5 {
		case 0:
			if rng.Intn(16) != 0 {
				p = rng.Intn(v)
			}
		case 1:
			if rng.Intn(300) != 0 {
				p = v - 1
			}
		case 2:
			if rng.Intn(200) == 0 {
				centre = v
			} else {
				p = centre
			}
		case 4:
			p = v - 1
			if rng.Intn(2) == 0 {
				p = rng.Intn(v)
			}
		}
		if p >= 0 {
			edges = append(edges, graph.Edge{U: uint32(p), V: uint32(v)})
		}
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	w := make([]float64, len(edges))
	for i, e := range edges {
		e = graph.Edge{U: perm[e.U], V: perm[e.V]}
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		edges[i], w[i] = e, 0.5+8*rng.Float64()
	}
	return edges, w
}

// FuzzLCA holds the index to the parent-pointer reference on random
// forests of up to 1,000 vertices (16 blocks): LCA, Tree.Dist and the
// weighted Dist bits on every block-edge pair, on the pairs q's bytes name
// and on 200 random pairs, plus the component count. Each index is built
// over the arrays and scratch of a previous build on a forest of another
// size and shape, so a rebuild that leaks state from the last one fails.
func FuzzLCA(f *testing.F) {
	f.Add(uint16(700), uint8(0), uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint16(999), uint8(1), uint64(2), []byte{})
	f.Add(uint16(640), uint8(2), uint64(3), []byte{9, 9, 9, 9})
	f.Add(uint16(130), uint8(3), uint64(4), []byte{})
	f.Add(uint16(513), uint8(4), uint64(5), []byte{1, 0, 0, 2})
	f.Add(uint16(0), uint8(0), uint64(6), []byte{})
	f.Add(uint16(64), uint8(1), uint64(7), []byte{63, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nb uint16, shape uint8, seed uint64, q []byte) {
		n := 1 + int(nb)%1000
		var tr Tree
		var wt WeightedTree
		var s, ws forestScratch
		prevE, prevW := fuzzForest(n/2+70, shape+1, ^seed)
		wt.wdepth = make([]float64, n/2+70)
		tr.build(n/2+70, prevE, nil, nil, &s)
		wt.build(n/2+70, prevE, prevW, wt.wdepth, &ws)

		edges, w := fuzzForest(n, shape, seed)
		ref := newRefForest(n, edges, w)
		wt.wdepth = make([]float64, n)
		if comps := tr.build(n, edges, nil, nil, &s); comps != ref.comps {
			t.Fatalf("build found %d components, reference %d", comps, ref.comps)
		}
		if comps := wt.build(n, edges, w, wt.wdepth, &ws); comps != ref.comps {
			t.Fatalf("weighted build found %d components, reference %d", comps, ref.comps)
		}
		for _, p := range blockEdgePairs(&tr.lcaIndex) {
			checkPair(t, ref, &tr.lcaIndex, &tr, &wt, p[0], p[1])
		}
		for i := 0; i+4 <= len(q); i += 4 {
			u := uint32(int(q[i])<<8|int(q[i+1])) % uint32(n)
			v := uint32(int(q[i+2])<<8|int(q[i+3])) % uint32(n)
			checkPair(t, ref, &tr.lcaIndex, &tr, &wt, u, v)
		}
		rng := xrand.NewSplitMix64(seed)
		for range 200 {
			checkPair(t, ref, &tr.lcaIndex, &tr, &wt, uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
	})
}

// maxTreeBytesPerVertex bounds the heap a built Tree retains per vertex:
// its edge list (8 B), the index's pre, key and mask arrays (20 B) and its
// block table (about 1.5 B at 40k vertices). A sparse table over a
// 2n−1-entry Euler tour, at about 172 B per vertex, fails it, and so does
// a tree that keeps its build scratch (12 B more for the forest CSR).
const maxTreeBytesPerVertex = 40

// TestTreeRetainedBytes is the bytes gate on what a built low-stretch tree
// keeps: the live heap after a build, with the tree held and the input
// graph allocated before the first reading, over the vertex count. Build
// scratch that a tree kept would show up here.
func TestTreeRetainedBytes(t *testing.T) {
	g := graph.RoadNetwork(200, 200, 0.9, 20, 0x70ad)
	build := func() *Tree {
		tr, err := BuildPoolCtx(nil, nil, g, 0.2, 1, 2, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	build() // start the default pool and size its scratch first
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	tr := build()
	after := live()
	runtime.KeepAlive(tr)
	per := (float64(after) - float64(before)) / float64(g.NumVertices())
	t.Logf("a built tree retains %.1f B per vertex", per)
	if per > maxTreeBytesPerVertex {
		t.Fatalf("a built tree retains %.1f B per vertex (gate %d)", per, maxTreeBytesPerVertex)
	}
}
