package hier

import (
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// weightedRunFingerprint drives a weighted contract-mode hierarchy and
// hashes everything determinism guards: per level the round count, the
// quotient map, the centers, the IEEE bits of the weighted distances, and
// the tree edges mapped to original coordinates through the annotation
// machinery.
func weightedRunFingerprint(t *testing.T, wg *graph.WeightedGraph, beta float64, seed uint64, workers int) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:8])
	}
	hr, err := BuildWeightedHierarchy(Config{
		// Geometric AKPW-style schedule: halving β per level grows the
		// cluster radius ×2 per level, so the hierarchy always converges.
		WBetaAt:      func(level int) float64 { return beta / float64(uint64(1)<<uint(level)) },
		Seed:         seed,
		Workers:      workers,
		NeedEdgeOrig: true,
	}, wg, func(lv *Level) error {
		put32(uint32(lv.WD.Rounds))
		for _, q := range lv.Quot {
			put32(q)
		}
		for v := 0; v < lv.G.NumVertices(); v++ {
			put32(lv.WD.Center[v])
			put64(math.Float64bits(lv.WD.Dist[v]))
			if p := lv.WD.Parent[v]; p != uint32(v) {
				e := lv.OrigEdge(uint32(v), p)
				put32(e.U)
				put32(e.V)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := hr.Result()
	put32(uint32(res.Levels))
	return h.Sum64(), res.Levels
}

// TestRunWeightedMatchesSerialHierarchy replays the weighted hierarchy
// with a hand-rolled serial loop — workers=1 partition plus the
// serial map-based weighted contraction — and requires the engine to match
// it level by level, bit for bit (graphs, weights, quotient maps).
func TestRunWeightedMatchesSerialHierarchy(t *testing.T) {
	g := graph.GNM(600, 2400, 7)
	wg := graph.RandomWeights(g, 1, 6, 3)
	const beta = 0.3
	const seed = uint64(11)

	type levelRec struct {
		wg   *graph.WeightedGraph
		quot []uint32
	}
	betaAt := func(level int) float64 { return beta / float64(uint64(1)<<uint(level)) }
	var want []levelRec
	cur := wg
	for level := 0; cur.NumEdges() > 0 && level < 64; level++ {
		wd, err := core.PartitionWeightedParallel(cur, betaAt(level), 1/betaAt(level), core.Options{
			Seed:    xrand.Mix(seed, uint64(level)),
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		next, quot, err := graph.ContractWeightedClusters(cur, wd.Center)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, levelRec{wg: cur, quot: quot})
		cur = next
	}

	level := 0
	_, err := BuildWeightedHierarchy(Config{
		WBetaAt: func(l int) float64 { return betaAt(l) },
		Seed:    seed, Workers: 8,
	}, wg, func(lv *Level) error {
		if level >= len(want) {
			t.Fatalf("engine ran more levels than the serial replay (%d)", len(want))
		}
		w := want[level]
		if !weightedEqual(lv.WG, w.wg) {
			t.Fatalf("level %d: weighted graph diverges from serial replay", level)
		}
		for v := range w.quot {
			if lv.Quot[v] != w.quot[v] {
				t.Fatalf("level %d: quot[%d] = %d want %d", level, v, lv.Quot[v], w.quot[v])
			}
		}
		level++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if level != len(want) {
		t.Fatalf("engine ran %d levels, serial replay ran %d", level, len(want))
	}
}

// weightedEqual compares weighted graphs bit for bit through the public
// accessors.
func weightedEqual(a, b *graph.WeightedGraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		an, aw := a.Neighbors(uint32(v))
		bn, bw := b.Neighbors(uint32(v))
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i] != bn[i] || math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
				return false
			}
		}
	}
	return true
}

// TestRunWeightedDirectionsBitIdentical is the engine-level cross-worker
// determinism proof for weighted hierarchies: workers 1/2/8 must produce
// one fingerprint.
func TestRunWeightedDirectionsBitIdentical(t *testing.T) {
	graphs := map[string]*graph.WeightedGraph{
		"grid": graph.RandomWeights(graph.Grid2D(15, 20), 1, 4, 9),
		"gnm":  graph.RandomWeights(graph.GNM(400, 1600, 5), 0.5, 8, 2),
	}
	for name, wg := range graphs {
		for _, seed := range []uint64{1, 23} {
			want, wantLevels := weightedRunFingerprint(t, wg, 0.35, seed, 1)
			for _, w := range []int{2, 8} {
				got, levels := weightedRunFingerprint(t, wg, 0.35, seed, w)
				if got != want || levels != wantLevels {
					t.Fatalf("%s seed=%d workers=%d: fingerprint %#x (levels %d) want %#x (levels %d)",
						name, seed, w, got, levels, want, wantLevels)
				}
			}
		}
	}
}

// TestRunWeightedResidual checks the weighted residual mode: every level's
// next graph contains exactly the cut edges with their original weights,
// and intra edges partition the edge set across levels.
func TestRunWeightedResidual(t *testing.T) {
	g := graph.Grid2D(12, 14)
	wg := graph.RandomWeights(g, 1, 3, 4)
	var gotEdges int64
	h, err := BuildWeightedHierarchy(Config{
		Beta: 0.5, Seed: 3, Workers: 4, Residual: true, NeedIntra: true, MaxLevels: 200,
	}, wg, func(lv *Level) error {
		if lv.WG.NumVertices() != g.NumVertices() {
			t.Fatalf("residual level %d changed the vertex set", lv.Index)
		}
		for _, e := range lv.IntraEdges {
			w, ok := wg.Weight(e.U, e.V)
			if !ok || w <= 0 {
				t.Fatalf("intra edge {%d,%d} is not an original weighted edge", e.U, e.V)
			}
		}
		gotEdges += int64(len(lv.IntraEdges))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotEdges != wg.NumEdges() {
		t.Fatalf("intra edges across levels = %d, want all %d edges", gotEdges, wg.NumEdges())
	}
	if wf := h.Result().WFinal; wf.NumEdges() != 0 {
		t.Fatalf("final residual graph still has %d edges", wf.NumEdges())
	}
}

// TestRunWeightedStats sanity-checks the weighted per-level stats: weight
// is conserved into the next level and fractions are in range.
func TestRunWeightedStats(t *testing.T) {
	wg := graph.RandomWeights(graph.GNM(500, 2000, 1), 1, 5, 8)
	h, err := BuildWeightedHierarchy(Config{
		WBetaAt: func(l int) float64 { return 0.3 / float64(uint64(1)<<uint(l)) },
		Seed:    2, Workers: 4,
	}, wg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Result()
	for i, st := range res.Stats {
		if !st.Weighted {
			t.Fatalf("level %d: stats not marked weighted", i)
		}
		if st.CutWeight > st.TotalWeight*(1+1e-9) {
			t.Fatalf("level %d: cut weight %g exceeds total %g", i, st.CutWeight, st.TotalWeight)
		}
		if st.CutWeightFraction < 0 || st.CutWeightFraction > 1+1e-9 {
			t.Fatalf("level %d: cut weight fraction %g out of range", i, st.CutWeightFraction)
		}
		if i > 0 {
			prev := res.Stats[i-1]
			if relDiff(st.TotalWeight, prev.CutWeight) > 1e-9 {
				t.Fatalf("level %d: total weight %g != previous cut weight %g (conservation)",
					i, st.TotalWeight, prev.CutWeight)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}
