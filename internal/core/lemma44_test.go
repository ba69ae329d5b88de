package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

func TestTwoWithinCDegenerate(t *testing.T) {
	if TwoWithinC(nil, 0.1, 1, 0) || TwoWithinC([]float64{1}, 0.1, 1, 0) {
		t.Error("fewer than two values can never witness")
	}
}

func TestLemma44ProbabilityBound(t *testing.T) {
	// Lemma 4.4: Pr[within c] <= 1 - exp(-beta*c) < beta*c, for ANY base
	// values d_i. Check several adversarial bases.
	bases := [][]float64{
		make([]float64, 50),               // all equal: the hardest case
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},    // spread
		{0, 0.1, 0.2, 0.3, 100, 200, 300}, // mixed
	}
	const trials = 20000
	for bi, d := range bases {
		for _, bc := range []struct{ beta, c float64 }{{0.1, 1}, {0.05, 2}, {0.3, 0.5}} {
			p := Lemma44Probability(d, bc.beta, bc.c, trials, uint64(bi)*77+1)
			bound := bc.beta * bc.c
			// Allow 4-sigma sampling slack above the bound.
			slack := 4 * math.Sqrt(bound*(1-bound)/trials)
			if p > bound+slack {
				t.Errorf("base %d beta=%g c=%g: observed %g exceeds bound %g",
					bi, bc.beta, bc.c, p, bound)
			}
		}
	}
}

func TestLemma44TightForEqualBases(t *testing.T) {
	// With all d_i equal the bound is nearly achieved for large n:
	// probability -> 1 - exp(-beta*c). Check we are within noise of it.
	d := make([]float64, 200)
	beta, c := 0.1, 1.0
	const trials = 30000
	p := Lemma44Probability(d, beta, c, trials, 9)
	want := 1 - math.Exp(-beta*c)
	if math.Abs(p-want) > 0.01 {
		t.Errorf("equal-bases probability %g, want ~%g", p, want)
	}
}

func TestSubdivideEdges(t *testing.T) {
	g := graph.Cycle(5)
	sub, mids := SubdivideEdges(g)
	if sub.NumVertices() != 10 || sub.NumEdges() != 10 {
		t.Errorf("subdivision shape n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	if len(mids) != 5 {
		t.Fatalf("mids %v", mids)
	}
	// Every midpoint has degree exactly 2, adjacent to the original
	// endpoints of its edge.
	edges := g.Edges()
	for i, w := range mids {
		if sub.Degree(w) != 2 {
			t.Errorf("midpoint %d degree %d", w, sub.Degree(w))
		}
		if !sub.HasEdge(w, edges[i].U) || !sub.HasEdge(w, edges[i].V) {
			t.Errorf("midpoint %d not adjacent to its endpoints", w)
		}
	}
	// Original vertices keep their degree.
	for v := uint32(0); v < 5; v++ {
		if sub.Degree(v) != g.Degree(v) {
			t.Errorf("vertex %d degree changed", v)
		}
	}
}

func TestMidpointWitnessLemma43(t *testing.T) {
	// Lemma 4.3: every cut edge must be witnessed (two shifted distances to
	// its midpoint within 1 of the minimum). The converse need not hold.
	graphs := []*graph.Graph{
		graph.Grid2D(8, 8),
		graph.Cycle(30),
		graph.GNM(40, 100, 5),
	}
	for gi, g := range graphs {
		for _, seed := range []uint64{1, 2, 3} {
			cut, witnessed, err := MidpointWitness(g, 0.3, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			cuts, wits := 0, 0
			for i := range cut {
				if cut[i] {
					cuts++
					if !witnessed[i] {
						t.Errorf("graph %d seed %d: edge %d cut but not witnessed — Lemma 4.3 violated",
							gi, seed, i)
					}
				}
				if witnessed[i] {
					wits++
				}
			}
			if wits < cuts {
				t.Errorf("graph %d: %d witnesses < %d cuts", gi, wits, cuts)
			}
		}
	}
}

func TestOrderStatisticGapsFact31(t *testing.T) {
	// Fact 3.1: X_(k+1) − X_(k) ~ Exp((n−k)·beta). Check the empirical mean
	// of each gap over many trials: E[gap_k] = 1/((n-k)*beta), where gap_0
	// is X_(1) with rate n*beta.
	const n, beta, trials = 10, 0.5, 20000
	sums := make([]float64, n)
	for t0 := 0; t0 < trials; t0++ {
		gaps := OrderStatisticGaps(n, beta, uint64(t0)*13+7)
		for i, g := range gaps {
			sums[i] += g
		}
	}
	for k := 0; k < n; k++ {
		mean := sums[k] / trials
		want := 1 / (float64(n-k) * beta)
		if math.Abs(mean-want)/want > 0.08 {
			t.Errorf("gap %d: mean %g want %g", k, mean, want)
		}
	}
}

func TestOrderStatisticGapsSumToMax(t *testing.T) {
	gaps := OrderStatisticGaps(100, 0.2, 42)
	var sum float64
	for _, g := range gaps {
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	shifts := GenerateShifts(100, 0.2, Options{Seed: 42, ShiftSource: ShiftExponential})
	var max float64
	for _, s := range shifts {
		if s > max {
			max = s
		}
	}
	if math.Abs(sum-max) > 1e-9 {
		t.Errorf("gaps sum %g != max %g", sum, max)
	}
}
