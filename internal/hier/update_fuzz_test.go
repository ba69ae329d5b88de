package hier

import (
	"slices"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// FuzzHierUpdate checks the incremental-maintenance contract on arbitrary
// small instances: build a hierarchy, apply a fuzzer-chosen batch of edge
// inserts and deletes through Hierarchy.UpdateCtx, and require the result —
// stats, final graph, vertex map, and every retained level — to be
// bit-identical to a from-scratch build on the updated graph. The per-level
// views the visits capture, maintained as an app maintains them (a Kept
// level keeps its previous tree view), must equal the fresh build's. This
// is the fuzz companion of TestHierarchyUpdateBitIdentical: the fuzzer
// explores batch shapes (no-ops, cut inserts, tree-edge deletes, total
// teardown) that the golden suite only samples.
//
// Bit 7 of nInsRaw selects the weighted arm: g lifted to random weights,
// a geometric β schedule (a flat β need not drain a weighted graph),
// weighted inserts, and re-inserts of existing edges with new weights, so
// the batch also re-weights edges.
func FuzzHierUpdate(f *testing.F) {
	f.Add(uint16(40), uint16(80), uint64(1), byte(20), byte(0), uint64(7), byte(6), byte(4))
	f.Add(uint16(3), uint16(1), uint64(7), byte(90), byte(1), uint64(0), byte(1), byte(1))
	f.Add(uint16(120), uint16(400), uint64(42), byte(5), byte(2), uint64(99), byte(12), byte(12))
	f.Add(uint16(64), uint16(0), uint64(3), byte(50), byte(5), uint64(5), byte(8), byte(0)) // edgeless base
	f.Add(uint16(3), uint16(1), uint64(7), byte(90), byte(1), uint64(26), byte(1), byte(1)) // three levels shrink to none
	// The weighted arm, in contract and residual mode.
	f.Add(uint16(40), uint16(80), uint64(1), byte(20), byte(0), uint64(7), byte(0x80|6), byte(4))           // weighted contract
	f.Add(uint16(120), uint16(400), uint64(42), byte(5), byte(4), uint64(99), byte(0x80|0x30|12), byte(12)) // weighted residual
	f.Add(uint16(50), uint16(150), uint64(11), byte(30), byte(2), uint64(13), byte(0x80|0x20), byte(0))     // weighted, re-weights only
	f.Add(uint16(64), uint16(0), uint64(3), byte(50), byte(9), uint64(5), byte(0x80|8), byte(0))            // weighted, edgeless base
	// Weighted instances whose update and rebuild once ran different
	// Δ-stepping round counts, at four and at two workers, when a push
	// round read distances other workers lowered in the same round.
	f.Add(uint16(30), uint16(235), uint64(0), byte(123), byte(115), uint64(14), byte(0xac), byte(63))
	f.Add(uint16(46), uint16(155), uint64(133), byte(4), byte(113), uint64(93), byte(0x82), byte(0))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64, betaRaw, modeRaw byte, batchSeed uint64, nInsRaw, nDelRaw byte) {
		n := int(nRaw%200) + 2
		maxM := int64(n) * int64(n-1) / 4
		if maxM < 1 {
			maxM = 1
		}
		m := int64(mRaw) % maxM
		g := graph.GNM(n, m, seed)
		beta := 0.02 + float64(betaRaw%96)/100
		dir := []core.Direction{core.DirectionAuto, core.DirectionForcePush, core.DirectionForcePull}[modeRaw%3]
		cfg := Config{
			Beta:         beta,
			Seed:         seed,
			Workers:      1 + int(modeRaw%8),
			Direction:    dir,
			NeedEdgeOrig: modeRaw%2 == 0,
			NeedIntra:    modeRaw%4 < 2,
			Residual:     modeRaw%5 == 4,
			MaxLevels:    64,
		}
		var wg *graph.WeightedGraph
		if weighted := nInsRaw&0x80 != 0; weighted {
			wg = graph.RandomWeights(g, 0.25, 8, seed^0x9e3779b97f4a7c15)
			cfg.WBetaAt = func(l int) float64 { return beta / float64(uint64(1)<<uint(l%60)) }
		}
		build := func(g *graph.Graph, wg *graph.WeightedGraph, visit func(*Level) error) (*Hierarchy, error) {
			if wg != nil {
				return BuildWeightedHierarchy(cfg, wg, visit)
			}
			return BuildHierarchy(cfg, g, visit)
		}

		// views holds each level's captured view as an app maintains it:
		// an update visit keeps the previous tree view on a Kept level.
		views := map[int]levelView{}
		h, err := build(g, wg, func(lv *Level) error {
			views[lv.Index] = captureView(lv)
			return nil
		})
		if err != nil && err != ErrMaxLevels {
			t.Fatal(err)
		}

		var b graph.Batch
		for i := 0; i < int(nInsRaw%16); i++ {
			u := uint32(xrand.Mix(batchSeed, uint64(i)*2+1) % uint64(n))
			v := uint32(xrand.Mix(batchSeed, uint64(i)*2+2) % uint64(n))
			b.Insert = append(b.Insert, graph.Edge{U: u, V: v})
		}
		edges := g.Edges()
		if len(edges) > 0 {
			for i := 0; i < int(nDelRaw%16); i++ {
				b.Delete = append(b.Delete, edges[xrand.Mix(batchSeed, 0xde1+uint64(i))%uint64(len(edges))])
			}
		}
		if wg != nil {
			if len(edges) > 0 {
				for i := 0; i <= int(nInsRaw>>4&7); i++ {
					b.Insert = append(b.Insert, edges[xrand.Mix(batchSeed, 0x3e1+uint64(i))%uint64(len(edges))])
				}
			}
			for i := range b.Insert {
				b.InsertW = append(b.InsertW, 0.25+7.75*xrand.Uniform01(batchSeed, 0x3e1d+uint64(i)))
			}
		}

		_, uerr := h.UpdateCtx(nil, b, func(lv *Level) error {
			view := captureView(lv)
			if prev, ok := views[lv.Index]; lv.Kept && ok {
				view.tree = prev.tree
			}
			views[lv.Index] = view
			return nil
		})
		dropViewsAbove(views, h.Levels())
		var updated *graph.Graph
		var updatedW *graph.WeightedGraph
		if wg != nil {
			updatedW, _, err = graph.ApplyBatchWeighted(wg, b)
		} else {
			updated, _, err = graph.ApplyBatch(g, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		freshViews := map[int]levelView{}
		fresh, ferr := build(updated, updatedW, func(lv *Level) error {
			freshViews[lv.Index] = captureView(lv)
			return nil
		})
		if (uerr != nil) != (ferr != nil) || (uerr == ErrMaxLevels) != (ferr == ErrMaxLevels) {
			t.Fatalf("error mismatch: update=%v fresh=%v", uerr, ferr)
		}
		if uerr != nil && uerr != ErrMaxLevels {
			return
		}

		requireHierIdentical(t, "fuzz", h, fresh)
		if len(views) != len(freshViews) {
			t.Fatalf("%d levels of views, fresh build has %d", len(views), len(freshViews))
		}
		for l, fv := range freshViews {
			if gv := views[l]; !slices.Equal(gv.tree, fv.tree) || !slices.Equal(gv.intra, fv.intra) {
				t.Fatalf("level %d: maintained view differs from the fresh build's", l)
			}
		}
	})
}
