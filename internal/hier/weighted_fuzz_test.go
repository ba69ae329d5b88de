package hier

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

// FuzzHierWeighted checks the weighted hierarchy engine on arbitrary small
// weighted graphs and worker counts: the union of the per-level
// shortest-path-tree edges (mapped to original coordinates via the
// annotation machinery) must be a valid spanning structure of the original
// graph — acyclic, one tree per connected component, every edge a real
// original edge — and the whole run must be bit-identical to the
// workers=1 run of the same instance (the weighted mirror of
// FuzzPartitionWeighted, one layer up).
func FuzzHierWeighted(f *testing.F) {
	f.Add(uint16(40), uint16(80), uint64(1), byte(20), byte(0))
	f.Add(uint16(3), uint16(1), uint64(7), byte(90), byte(1))
	f.Add(uint16(120), uint16(400), uint64(42), byte(5), byte(2))
	f.Add(uint16(64), uint16(0), uint64(3), byte(50), byte(5)) // edgeless
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64, betaRaw, modeRaw byte) {
		n := int(nRaw%200) + 2
		maxM := int64(n) * int64(n-1) / 4
		if maxM < 1 {
			maxM = 1
		}
		m := int64(mRaw) % maxM
		g := graph.GNM(n, m, seed)
		wg := graph.RandomWeights(g, 0.25, 8, seed^0x9e3779b97f4a7c15)
		beta := 0.02 + float64(betaRaw%96)/100
		workers := 1 + int(modeRaw%8)

		type runOut struct {
			levels  int
			edges   []graph.Edge
			origMap []uint32
			maxLv   bool
		}
		run := func(workers int) runOut {
			// origMap folds every visited level's quotient map: original
			// vertex -> its vertex in the final graph.
			out := runOut{origMap: make([]uint32, n)}
			for v := range out.origMap {
				out.origMap[v] = uint32(v)
			}
			h, err := BuildWeightedHierarchy(Config{
				// Geometric AKPW-style β schedule so the hierarchy converges
				// on every instance the fuzzer invents.
				WBetaAt: func(l int) float64 {
					return beta / float64(uint64(1)<<uint(l%60))
				},
				Seed:         seed,
				Workers:      workers,
				NeedEdgeOrig: true,
			}, wg, func(lv *Level) error {
				for v := 0; v < lv.G.NumVertices(); v++ {
					if p := lv.WD.Parent[v]; p != uint32(v) {
						out.edges = append(out.edges, lv.OrigEdge(uint32(v), p))
					}
				}
				for v, q := range out.origMap {
					out.origMap[v] = lv.Quot[q]
				}
				return nil
			})
			if err == ErrMaxLevels {
				out.maxLv = true
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out.levels = h.Levels()
			return out
		}

		got := run(workers)
		ref := run(1)

		// Cross-worker determinism: identical level count, tree edges,
		// original→final vertex map, and MaxLevels behavior.
		if got.maxLv != ref.maxLv || got.levels != ref.levels || len(got.edges) != len(ref.edges) {
			t.Fatalf("workers=%d diverges from workers=1: levels %d/%v vs %d/%v, edges %d vs %d",
				workers, got.levels, got.maxLv, ref.levels, ref.maxLv, len(got.edges), len(ref.edges))
		}
		for i := range got.edges {
			if got.edges[i] != ref.edges[i] {
				t.Fatalf("workers=%d: tree edge %d is %v, workers=1 has %v",
					workers, i, got.edges[i], ref.edges[i])
			}
		}
		for v := range got.origMap {
			if got.origMap[v] != ref.origMap[v] {
				t.Fatalf("workers=%d: origMap[%d] diverges", workers, v)
			}
		}
		if got.maxLv {
			return // partial runs already proven bit-identical
		}

		// Valid spanning structure: every tree edge is a real original edge
		// with a positive finite weight, the edge set is acyclic
		// (union-find), and it spans exactly the connected components of g
		// (#edges == n - #components).
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = int32(i)
		}
		var find func(int32) int32
		find = func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range got.edges {
			w, ok := wg.Weight(e.U, e.V)
			if !ok || !(w > 0) || math.IsInf(w, 0) {
				t.Fatalf("tree edge {%d,%d} is not an original weighted edge", e.U, e.V)
			}
			ru, rv := find(int32(e.U)), find(int32(e.V))
			if ru == rv {
				t.Fatalf("tree edges contain a cycle through {%d,%d}", e.U, e.V)
			}
			parent[ru] = rv
		}
		_, comps := graph.ConnectedComponents(g)
		if len(got.edges) != n-comps {
			t.Fatalf("tree has %d edges for n=%d with %d components (not spanning)",
				len(got.edges), n, comps)
		}
	})
}
