package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPermutePreservesStructure(t *testing.T) {
	g := Grid2D(6, 7)
	perm := RandomPermutation(g.NumVertices(), 3)
	p, err := Permute(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != g.NumVertices() || p.NumEdges() != g.NumEdges() {
		t.Fatal("shape changed")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if p.Degree(perm[v]) != g.Degree(uint32(v)) {
			t.Fatalf("degree of %d changed under relabeling", v)
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if !p.HasEdge(perm[v], perm[u]) {
				t.Fatalf("edge {%d,%d} lost", v, u)
			}
		}
	}
}

func TestPermuteRejectsBadInput(t *testing.T) {
	g := Path(4)
	if _, err := Permute(g, []uint32{0, 1}); err == nil {
		t.Error("expected length error")
	}
	if _, err := Permute(g, []uint32{0, 1, 1, 2}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := Permute(g, []uint32{0, 1, 2, 9}); err == nil {
		t.Error("expected range error")
	}
}

func TestContractClusters(t *testing.T) {
	g := Grid2D(2, 4) // vertices 0..7
	// Two clusters: left half {0,1,4,5} label 9, right half {2,3,6,7} label 4.
	label := []uint32{9, 9, 4, 4, 9, 9, 4, 4}
	q, quot, err := ContractClusters(g, label)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 2 || q.NumEdges() != 1 {
		t.Errorf("quotient n=%d m=%d", q.NumVertices(), q.NumEdges())
	}
	if quot[0] == quot[2] {
		t.Error("different clusters mapped together")
	}
	if quot[0] != quot[1] || quot[2] != quot[3] {
		t.Error("same cluster split")
	}
	if _, _, err := ContractClusters(g, []uint32{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := GNM(30, 80, 2)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadDIMACSFeatures(t *testing.T) {
	in := "c comment\np edge 3 2\ne 1 2\ne 2 3\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Errorf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	// Duplicate arcs ("a") collapse.
	in2 := "p sp 2 2\na 1 2\na 2 1\n"
	g2, err := ReadDIMACS(strings.NewReader(in2))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 1 {
		t.Errorf("duplicate arcs not collapsed: m=%d", g2.NumEdges())
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"e 1 2",                  // edge before header
		"p edge 2 1\ne 1 5",      // out of range
		"p edge 2 1\ne 0 1",      // 0 is invalid (1-based)
		"p edge x y\n",           // bad counts
		"p edge 2 1\nz 1 2",      // unknown record
		"",                       // no header
		"p edge 2 1\np edge 2 1", // duplicate header
		"p edge 2 1\ne 1",        // short edge
		"p edge -1 1",            // negative n
		"p edge 2 -5",            // negative m
		"p edge 2000000000 1",    // n beyond the allocation limit
	}
	for i, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadDIMACSWeightedFeatures(t *testing.T) {
	in := "c weighted\np sp 3 2\na 1 2 2.5\na 2 3\n"
	wg, err := ReadDIMACSWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if wg.NumVertices() != 3 || wg.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", wg.NumVertices(), wg.NumEdges())
	}
	if w, ok := wg.Weight(0, 1); !ok || w != 2.5 {
		t.Errorf("weight(0,1) = %v,%v, want 2.5", w, ok)
	}
	// The weightless line defaults to 1.
	if w, ok := wg.Weight(1, 2); !ok || w != 1 {
		t.Errorf("weight(1,2) = %v,%v, want 1", w, ok)
	}
	// Duplicate arcs collapse, last weight winning.
	in2 := "p sp 2 2\na 1 2 3\na 2 1 7\n"
	wg2, err := ReadDIMACSWeighted(strings.NewReader(in2))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := wg2.Weight(0, 1); wg2.NumEdges() != 1 || w != 7 {
		t.Errorf("duplicate arcs: m=%d w=%v, want 1/7", wg2.NumEdges(), w)
	}
}

// TestReadDIMACSWeightedErrors covers the weighted parser's hostile inputs.
// The non-finite cases matter most: NaN fails every ordered comparison and
// +Inf passes a bare w > 0 test, so a positivity check alone admits both
// and a single such weight poisons every downstream shortest-path distance.
func TestReadDIMACSWeightedErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"nan weight", "p sp 2 1\na 1 2 NaN\n", "finite positive"},
		{"plus inf weight", "p sp 2 1\na 1 2 +Inf\n", "finite positive"},
		{"inf weight", "p sp 2 1\na 1 2 Inf\n", "finite positive"},
		{"minus inf weight", "p sp 2 1\na 1 2 -Inf\n", "finite positive"},
		{"zero weight", "p sp 2 1\na 1 2 0\n", "finite positive"},
		{"negative weight", "p sp 2 1\na 1 2 -3\n", "finite positive"},
		{"unparsable weight", "p sp 2 1\na 1 2 heavy\n", "bad weight"},
		{"edge before header", "a 1 2 1\n", "before problem line"},
		{"out of range", "p sp 2 1\na 1 5 1\n", "out of 1..2"},
		{"zero vertex", "p sp 2 1\na 0 1 1\n", "out of 1..2"},
		{"duplicate header", "p sp 2 1\np sp 2 1\n", "duplicate problem line"},
		{"no header", "", "missing DIMACS problem line"},
		{"huge n", "p sp 2000000000 1\n", "exceeds limit"},
	}
	for _, tc := range cases {
		_, err := ReadDIMACSWeighted(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: parse succeeded, want error containing %q", tc.name, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestFromWeightedEdgesRejectsNonFinite pins the same invariant at the CSR
// layer, which ApplyBatchWeighted and every generator funnel through.
func TestFromWeightedEdgesRejectsNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := FromWeightedEdges(2, []WeightedEdge{{U: 0, V: 1, W: w}}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

// TestReadDIMACSHostileHeader feeds a header declaring an absurd edge count
// followed by a tiny body: the reader must clamp its pre-allocation (rather
// than OOM on make([]Edge, 0, m)) and still parse the file correctly.
func TestReadDIMACSHostileHeader(t *testing.T) {
	in := "p edge 10 999999999999\ne 1 2\ne 2 3\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 2 {
		t.Errorf("n=%d m=%d, want 10/2", g.NumVertices(), g.NumEdges())
	}
}
