package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"mpx/internal/xrand"
)

// TestFromEdgesAllocs gates FromEdges' allocations, which do not grow
// with the vertex count: sorting the neighbor lists allocates nothing.
func TestFromEdgesAllocs(t *testing.T) {
	edges := Grid2D(64, 64).Edges()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := FromEdges(64*64, edges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("FromEdges on a 64x64 grid made %.0f allocations, gate 16", allocs)
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Errorf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for v := uint32(0); v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d)=%d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
}

func TestFromEdgesDropsSelfLoops(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("m=%d, want 1", g.NumEdges())
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("expected range error")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("expected negative-n error")
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g, err := FromEdgesDedup(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m=%d, want 2", g.NumEdges())
	}
}

func TestAdjacencySorted(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("adjacency not sorted: %v", nb)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	g, err := FromEdges(4, orig)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Edges()
	if len(got) != len(orig) {
		t.Fatalf("got %d edges, want %d", len(got), len(orig))
	}
	for _, e := range got {
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v missing", e)
		}
	}
}

func TestGridCounts(t *testing.T) {
	g := Grid2D(10, 15)
	if g.NumVertices() != 150 {
		t.Errorf("n=%d", g.NumVertices())
	}
	want := int64(10*14 + 15*9)
	if g.NumEdges() != want {
		t.Errorf("m=%d want %d", g.NumEdges(), want)
	}
	if !IsConnected(g) {
		t.Error("grid should be connected")
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus2D(5, 7)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) != 4 {
			t.Fatalf("degree(%d)=%d", v, g.Degree(uint32(v)))
		}
	}
}

func TestPathCycleCounts(t *testing.T) {
	if g := Path(10); g.NumEdges() != 9 || !IsConnected(g) {
		t.Error("path wrong")
	}
	if g := Cycle(10); g.NumEdges() != 10 {
		t.Error("cycle wrong")
	}
}

func TestCompleteStarTree(t *testing.T) {
	if g := Complete(7); g.NumEdges() != 21 {
		t.Errorf("K7 m=%d", g.NumEdges())
	}
	if g := Star(8); g.NumEdges() != 7 || g.Degree(0) != 7 {
		t.Error("star wrong")
	}
	if g := BinaryTree(15); g.NumEdges() != 14 || !IsConnected(g) {
		t.Error("tree wrong")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	if g.NumVertices() != 32 {
		t.Errorf("n=%d", g.NumVertices())
	}
	for v := 0; v < 32; v++ {
		if g.Degree(uint32(v)) != 5 {
			t.Fatalf("degree(%d)=%d", v, g.Degree(uint32(v)))
		}
	}
	if g.NumEdges() != 80 {
		t.Errorf("m=%d", g.NumEdges())
	}
}

func TestGNMExactEdgeCount(t *testing.T) {
	g := GNM(100, 450, 3)
	if g.NumEdges() != 450 {
		t.Errorf("m=%d want 450", g.NumEdges())
	}
	if g.NumVertices() != 100 {
		t.Errorf("n=%d", g.NumVertices())
	}
}

func TestGNMDeterministic(t *testing.T) {
	a := GNM(50, 100, 9)
	b := GNM(50, 100, 9)
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("GNM not deterministic")
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(200, 3, 4)
	if g.NumVertices() != 200 {
		t.Errorf("n=%d", g.NumVertices())
	}
	if !IsConnected(g) {
		t.Error("PA graph should be connected")
	}
	// Degree skew: max degree should clearly exceed the attachment count.
	if g.MaxDegree() <= 6 {
		t.Errorf("max degree %d suspiciously small", g.MaxDegree())
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(8, 2000, 7)
	if g.NumVertices() != 256 {
		t.Errorf("n=%d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 2000 {
		t.Errorf("m=%d", g.NumEdges())
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(10, 3)
	if g.NumVertices() != 40 || g.NumEdges() != 39 || !IsConnected(g) {
		t.Errorf("caterpillar n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestRoadNetwork(t *testing.T) {
	g := RoadNetwork(20, 20, 0.9, 10, 3)
	if g.NumVertices() != 400 {
		t.Errorf("n=%d", g.NumVertices())
	}
	lc, ids := LargestComponent(g)
	if lc.NumVertices() == 0 || len(ids) != lc.NumVertices() {
		t.Error("largest component extraction broken")
	}
}

func TestConnectedComponents(t *testing.T) {
	g, err := FromEdges(7, []Edge{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	labels, count := ConnectedComponents(g)
	if count != 4 {
		t.Errorf("count=%d want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("component 0 mislabeled")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Error("component 1 mislabeled")
	}
	if labels[5] == labels[6] {
		t.Error("isolated vertices must be separate components")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Grid2D(4, 4)
	sub, ids, err := g.InducedSubgraph([]uint32{0, 1, 2, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 5 {
		t.Errorf("n=%d", sub.NumVertices())
	}
	// Edges among {0,1,2,4,5} in a 4x4 grid: 0-1,1-2,0-4,1-5,4-5 = 5 edges.
	if sub.NumEdges() != 5 {
		t.Errorf("m=%d want 5", sub.NumEdges())
	}
	if len(ids) != 5 {
		t.Errorf("ids=%v", ids)
	}
	if _, _, err := g.InducedSubgraph([]uint32{0, 0}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, _, err := g.InducedSubgraph([]uint32{999}); err == nil {
		t.Error("expected range error")
	}
}

func TestTextIORoundTrip(t *testing.T) {
	g := GNM(40, 100, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryIORoundTrip(t *testing.T) {
	g := Grid2D(9, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                      // no header
		"3",                     // short header
		"2 1\n0 1\n0 1",         // edge count mismatch
		"2 1\nx y",              // bad numbers
		"2 1\n0 9",              // out of range
		"not a header at all x", // malformed
		// Hostile headers: each must fail before allocating by the header.
		"1 9000000000000000000\n", // huge m, no edges
		"1 -1\n",                  // negative m
		"-1 0\n",                  // negative n
		"1000000000 0\n",          // n over the limit
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n% also comment\n3 2\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m=%d", g.NumEdges())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("BAD!xxxxxxxx"))); err == nil {
		t.Error("expected magic error")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("expected EOF error")
	}
	// Hostile headers: a 20-byte file must fail before allocating by the
	// header's n or m.
	for _, h := range [][2]uint64{{1, 1 << 62}, {2, 1 << 27}, {1 << 29, 0}} {
		if _, err := ReadBinary(bytes.NewReader(binaryHeader(h[0], h[1]))); err == nil {
			t.Errorf("header n=%d m=%d: expected error", h[0], h[1])
		}
	}
}

// binaryHeader returns an MPXG header declaring n vertices and m edges,
// with no edges after it.
func binaryHeader(n, m uint64) []byte {
	b := binary.LittleEndian.AppendUint64(BinaryMagic[:], n)
	return binary.LittleEndian.AppendUint64(b, m)
}

func TestWeightedGraph(t *testing.T) {
	wg, err := FromWeightedEdges(3, []WeightedEdge{{0, 1, 2.5}, {1, 2, 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if wg.NumVertices() != 3 || wg.NumEdges() != 2 {
		t.Errorf("shape: n=%d m=%d", wg.NumVertices(), wg.NumEdges())
	}
	nbrs, ws := wg.Neighbors(1)
	if len(nbrs) != 2 {
		t.Fatalf("deg(1)=%d", len(nbrs))
	}
	for i, u := range nbrs {
		want := 2.5
		if u == 2 {
			want = 1.0
		}
		if ws[i] != want {
			t.Errorf("weight(1,%d)=%g want %g", u, ws[i], want)
		}
	}
	if _, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, -1}}); err == nil {
		t.Error("expected weight error")
	}
}

func TestRandomWeightsSymmetric(t *testing.T) {
	g := Grid2D(5, 5)
	wg := RandomWeights(g, 1, 4, 9)
	for v := 0; v < wg.NumVertices(); v++ {
		nbrs, ws := wg.Neighbors(uint32(v))
		for i, u := range nbrs {
			back, bws := wg.Neighbors(u)
			found := false
			for j, x := range back {
				if x == uint32(v) && bws[j] == ws[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric weight on edge {%d,%d}", v, u)
			}
			if ws[i] < 1 || ws[i] >= 4 {
				t.Fatalf("weight %g out of range", ws[i])
			}
		}
	}
}

func TestFromEdgesQuick(t *testing.T) {
	// Degree sum always equals 2m; property over random edge lists.
	f := func(raw []uint16) bool {
		n := 50
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{uint32(raw[i]) % uint32(n), uint32(raw[i+1]) % uint32(n)})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		var degSum int64
		for v := 0; v < n; v++ {
			degSum += int64(g.Degree(uint32(v)))
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	rngCheck := func(a, b *Graph) bool {
		if a.NumEdges() != b.NumEdges() {
			return false
		}
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if !rngCheck(RMAT(7, 500, 1), RMAT(7, 500, 1)) {
		t.Error("RMAT not deterministic")
	}
	if !rngCheck(PreferentialAttachment(80, 2, 5), PreferentialAttachment(80, 2, 5)) {
		t.Error("PA not deterministic")
	}
	if !rngCheck(RoadNetwork(10, 10, 0.8, 4, 2), RoadNetwork(10, 10, 0.8, 4, 2)) {
		t.Error("RoadNetwork not deterministic")
	}
	_ = xrand.Mix(0, 0)
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 3, 0.1, 5)
	if g.NumVertices() != 200 {
		t.Errorf("n=%d", g.NumVertices())
	}
	// Close to n*k edges (rewiring collisions may drop a few).
	if g.NumEdges() < 550 || g.NumEdges() > 600 {
		t.Errorf("m=%d, want ~600", g.NumEdges())
	}
	// p=0 gives the exact ring lattice: 2k-regular.
	lattice := WattsStrogatz(100, 2, 0, 1)
	for v := 0; v < 100; v++ {
		if lattice.Degree(uint32(v)) != 4 {
			t.Fatalf("lattice degree(%d)=%d", v, lattice.Degree(uint32(v)))
		}
	}
	// Determinism.
	a, b := WattsStrogatz(80, 2, 0.3, 9), WattsStrogatz(80, 2, 0.3, 9)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for _, f := range []func(){
		func() { WattsStrogatz(4, 2, 0.1, 0) },
		func() { WattsStrogatz(100, 2, 1.5, 0) },
		func() { WattsStrogatz(100, 0, 0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
