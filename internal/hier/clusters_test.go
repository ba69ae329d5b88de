package hier

import (
	"testing"

	"mpx/internal/graph"
)

// clusterRef walks the retained per-level state the way a visit callback
// sees it: vertex v's level-l cluster id is center_l applied to v's image
// under the quotient maps of levels 0..l-1. This is the reference the
// flat ClusterMaps export must reproduce exactly.
func clusterRef(centers [][]uint32, quots [][]uint32, l int, v uint32) uint32 {
	cur := v
	for i := 0; i < l; i++ {
		if quots[i] != nil {
			cur = quots[i][cur]
		}
	}
	return centers[l][cur]
}

func captureLevels(t *testing.T, cfg Config, g *graph.Graph) (*Hierarchy, [][]uint32, [][]uint32) {
	t.Helper()
	var centers, quots [][]uint32
	h, err := BuildHierarchy(cfg, g, func(lv *Level) error {
		centers = append(centers, append([]uint32(nil), lv.Center()...))
		if lv.Quot != nil {
			quots = append(quots, append([]uint32(nil), lv.Quot...))
		} else {
			quots = append(quots, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, centers, quots
}

func checkClusterMaps(t *testing.T, h *Hierarchy, centers, quots [][]uint32, n int) {
	t.Helper()
	maps := h.ClusterMaps()
	if len(maps) != len(centers) {
		t.Fatalf("ClusterMaps returned %d levels, hierarchy visited %d", len(maps), len(centers))
	}
	for l := range maps {
		if len(maps[l]) != n {
			t.Fatalf("level %d map has %d entries, want %d", l, len(maps[l]), n)
		}
		for v := 0; v < n; v++ {
			want := clusterRef(centers, quots, l, uint32(v))
			if maps[l][v] != want {
				t.Fatalf("level %d vertex %d: ClusterMaps=%d, quotient walk=%d", l, v, maps[l][v], want)
			}
		}
	}
}

func TestClusterMapsMatchQuotientWalk(t *testing.T) {
	g := graph.GNM(1200, 4000, 21)
	n := g.NumVertices()
	for _, residual := range []bool{false, true} {
		name := "contract"
		if residual {
			name = "residual"
		}
		t.Run(name, func(t *testing.T) {
			h, centers, quots := captureLevels(t, Config{Beta: 0.25, Seed: 3, Residual: residual}, g)
			checkClusterMaps(t, h, centers, quots, n)
		})
	}
}

func TestClusterMapsWeighted(t *testing.T) {
	g := graph.GNM(800, 2600, 5)
	wg := graph.RandomWeights(g, 1, 8, 2)
	n := g.NumVertices()
	var centers, quots [][]uint32
	h, err := BuildWeightedHierarchy(Config{
		WBetaAt: func(l int) float64 { return 0.3 / float64(uint64(1)<<uint(l)) },
		Seed:    9,
	}, wg, func(lv *Level) error {
		centers = append(centers, append([]uint32(nil), lv.Center()...))
		if lv.Quot != nil {
			quots = append(quots, append([]uint32(nil), lv.Quot...))
		} else {
			quots = append(quots, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClusterMaps(t, h, centers, quots, n)
}

// TestClusterMapsWorkerInvariance pins the pooled fold: the exported maps
// are bit-identical at workers 1, 2 and 8.
func TestClusterMapsWorkerInvariance(t *testing.T) {
	g := graph.Grid2D(40, 35)
	var ref [][]uint32
	for _, w := range []int{1, 2, 8} {
		h, _, _ := captureLevels(t, Config{Beta: 0.2, Seed: 7, Workers: w}, g)
		maps := h.ClusterMaps()
		if ref == nil {
			ref = maps
			continue
		}
		if len(maps) != len(ref) {
			t.Fatalf("workers=%d: %d levels, want %d", w, len(maps), len(ref))
		}
		for l := range ref {
			for v := range ref[l] {
				if maps[l][v] != ref[l][v] {
					t.Fatalf("workers=%d level %d vertex %d: %d != %d", w, l, v, maps[l][v], ref[l][v])
				}
			}
		}
	}
}

// TestClusterMapsSurviveUpdate pins the ownership contract: maps exported
// before an UpdateCtx keep their (stale) values, and a fresh export reflects
// the updated hierarchy.
func TestClusterMapsSurviveUpdate(t *testing.T) {
	g := graph.Grid2D(30, 30)
	n := g.NumVertices()
	h, _, _ := captureLevels(t, Config{Beta: 0.2, Seed: 13}, g)
	old := h.ClusterMaps()
	snapshot := make([][]uint32, len(old))
	for l := range old {
		snapshot[l] = append([]uint32(nil), old[l]...)
	}
	if _, err := h.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: uint32(n - 1)}}}, nil); err != nil {
		t.Fatal(err)
	}
	for l := range old {
		for v := range old[l] {
			if old[l][v] != snapshot[l][v] {
				t.Fatalf("exported map mutated by Update at level %d vertex %d", l, v)
			}
		}
	}
	// Fresh export must agree with a from-scratch build on the updated graph.
	var centers, quots [][]uint32
	h2, err := BuildHierarchy(Config{Beta: 0.2, Seed: 13}, h.Graph(), func(lv *Level) error {
		centers = append(centers, append([]uint32(nil), lv.Center()...))
		if lv.Quot != nil {
			quots = append(quots, append([]uint32(nil), lv.Quot...))
		} else {
			quots = append(quots, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = h2
	fresh := h.ClusterMaps()
	checkClusterMaps(t, h, centers, quots, n)
	if len(fresh) != len(centers) {
		t.Fatalf("fresh export has %d levels, from-scratch build %d", len(fresh), len(centers))
	}
}

// TestClusterMapsCache pins the sharing contract of the cached export: an
// update that only refreshes levels returns the same arrays, a re-deriving
// update (weighted ones included) returns new arrays equal to a
// from-scratch export, and an earlier export is never written.
func TestClusterMapsCache(t *testing.T) {
	g := graph.Grid2D(30, 30)
	n := g.NumVertices()
	cfg := Config{Beta: 0.2, Seed: 13}
	h, _, _ := captureLevels(t, cfg, g)
	old := h.ClusterMaps()
	snapshot := copyMaps(old)

	// Deleting an intra-cluster non-tree edge refreshes level 0 only.
	us, err := h.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{intraNonTreeEdge(t, g, h.levels[0].d)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Rederived != 0 {
		t.Fatalf("intra non-tree delete re-derived: %+v", us)
	}
	kept := h.ClusterMaps()
	if &kept[0][0] != &old[0][0] {
		t.Fatal("a refreshing update recomposed the cluster maps")
	}
	requireMapsEqual(t, "after a refreshing update", kept, freshMaps(t, cfg, h.Graph()))

	us, err = h.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: uint32(n - 1)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if us.Rederived == 0 {
		t.Fatalf("corner-to-corner insert did not re-derive: %+v", us)
	}
	fresh := h.ClusterMaps()
	if &fresh[0][0] == &old[0][0] {
		t.Fatal("a re-deriving update returned the cached cluster maps")
	}
	requireMapsEqual(t, "after a re-deriving update", fresh, freshMaps(t, cfg, h.Graph()))
	requireMapsEqual(t, "earlier export", old, snapshot)

	// Any effective weighted change re-derives every level.
	wcfg := Config{
		WBetaAt: func(l int) float64 { return 0.3 / float64(uint64(1)<<uint(l)) },
		Seed:    9,
	}
	wg := graph.RandomWeights(graph.GNM(400, 1300, 5), 1, 8, 2)
	wh, err := BuildWeightedHierarchy(wcfg, wg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wold := wh.ClusterMaps()
	wsnap := copyMaps(wold)
	if _, err := wh.UpdateCtx(nil, graph.Batch{Delete: []graph.Edge{wg.Unweighted().Edges()[0]}}, nil); err != nil {
		t.Fatal(err)
	}
	wfresh := wh.ClusterMaps()
	if &wfresh[0][0] == &wold[0][0] {
		t.Fatal("a weighted update returned the cached cluster maps")
	}
	want, err := BuildWeightedHierarchy(wcfg, wh.WeightedGraph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireMapsEqual(t, "after a weighted update", wfresh, want.ClusterMaps())
	requireMapsEqual(t, "earlier weighted export", wold, wsnap)
}

// freshMaps returns the cluster maps of a from-scratch build over g.
func freshMaps(t *testing.T, cfg Config, g *graph.Graph) [][]uint32 {
	t.Helper()
	h, err := BuildHierarchy(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h.ClusterMaps()
}

func copyMaps(maps [][]uint32) [][]uint32 {
	out := make([][]uint32, len(maps))
	for l := range maps {
		out[l] = append([]uint32(nil), maps[l]...)
	}
	return out
}

func requireMapsEqual(t *testing.T, tag string, got, want [][]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", tag, len(got), len(want))
	}
	for l := range want {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("%s: level %d has %d entries, want %d", tag, l, len(got[l]), len(want[l]))
		}
		for v := range want[l] {
			if got[l][v] != want[l][v] {
				t.Fatalf("%s: level %d vertex %d: %d, want %d", tag, l, v, got[l][v], want[l][v])
			}
		}
	}
}
