package hier

import (
	"math/rand"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// serialLevel mirrors one engine level with the serial primitives the
// engine replaced: Partition, then map-based ContractClusters.
func serialHierarchy(t *testing.T, g *graph.Graph, beta float64, seed uint64) (levels []*graph.Graph, decs []*core.Decomposition, maps [][]uint32) {
	t.Helper()
	cur := g
	for level := 0; cur.NumEdges() > 0; level++ {
		if level > 64 {
			t.Fatal("serial hierarchy did not converge")
		}
		d, err := core.Partition(cur, beta, core.Options{Seed: xrand.Mix(seed, uint64(level))})
		if err != nil {
			t.Fatal(err)
		}
		q, quot, err := graph.ContractClusters(cur, d.Center)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, cur)
		decs = append(decs, d)
		maps = append(maps, quot)
		cur = q
	}
	levels = append(levels, cur)
	return
}

// TestRunMatchesSerialHierarchy drives the engine in contract mode and
// checks every level against the serial reference loop: same graphs, same
// decompositions, same quotient maps, same stats.
func TestRunMatchesSerialHierarchy(t *testing.T) {
	gs := map[string]*graph.Graph{
		"grid": graph.Grid2D(17, 23),
		"gnm":  graph.GNM(600, 2400, 3),
	}
	for name, g := range gs {
		wantLevels, wantDecs, wantMaps := serialHierarchy(t, g, 0.25, 9)
		for _, w := range []int{1, 2, 8} {
			var got []*Level
			var gotQuots [][]uint32
			h, err := BuildHierarchy(Config{Beta: 0.25, Seed: 9, Workers: w}, g,
				func(lv *Level) error {
					got = append(got, &Level{Index: lv.Index, G: lv.G, D: lv.D, NumQuot: lv.NumQuot})
					gotQuots = append(gotQuots, lv.Quot)
					return nil
				})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			res := h.Result()
			if res.Levels != len(wantDecs) {
				t.Fatalf("%s workers=%d: %d levels, want %d", name, w, res.Levels, len(wantDecs))
			}
			for l, lv := range got {
				want := wantLevels[l]
				if lv.G.NumVertices() != want.NumVertices() || lv.G.NumEdges() != want.NumEdges() {
					t.Fatalf("%s workers=%d level %d: graph %v want %v", name, w, l, lv.G, want)
				}
				for v := range wantDecs[l].Center {
					if lv.D.Center[v] != wantDecs[l].Center[v] {
						t.Fatalf("%s workers=%d level %d: Center[%d] differs", name, w, l, v)
					}
				}
				for v, q := range wantMaps[l] {
					if gotQuots[l][v] != q {
						t.Fatalf("%s workers=%d level %d: quot[%d]=%d want %d", name, w, l, v, gotQuots[l][v], q)
					}
				}
				st := res.Stats[l]
				if st.CutEdges != wantDecs[l].CutEdges() {
					t.Fatalf("%s level %d: stat cut=%d want %d", name, l, st.CutEdges, wantDecs[l].CutEdges())
				}
				if st.Clusters != wantDecs[l].NumClusters() {
					t.Fatalf("%s level %d: stat clusters=%d want %d", name, l, st.Clusters, wantDecs[l].NumClusters())
				}
			}
			if res.Final.NumEdges() != 0 {
				t.Fatalf("%s: final graph still has %d edges", name, res.Final.NumEdges())
			}
		}
	}
}

// TestOrigEdgeAnnotations checks the edge-annotation invariant on every
// level: OrigEdge of any current edge {a, b} must return an original edge
// whose endpoints contract exactly onto a and b under the composed
// quotient maps.
func TestOrigEdgeAnnotations(t *testing.T) {
	g := graph.Grid2D(19, 21)
	n := g.NumVertices()
	cur := make([]uint32, n) // original vertex -> current-level vertex
	for v := range cur {
		cur[v] = uint32(v)
	}
	_, err := BuildHierarchy(Config{Beta: 0.3, Seed: 4, Workers: 8, NeedEdgeOrig: true}, g,
		func(lv *Level) error {
			for a := 0; a < lv.G.NumVertices(); a++ {
				for _, b := range lv.G.Neighbors(uint32(a)) {
					if uint32(a) > b {
						continue
					}
					e := lv.OrigEdge(uint32(a), b)
					ca, cb := cur[e.U], cur[e.V]
					if ca > cb {
						ca, cb = cb, ca
					}
					if ca != uint32(a) || cb != b {
						t.Fatalf("level %d: OrigEdge(%d,%d) = {%d,%d}, endpoints contract to {%d,%d}",
							lv.Index, a, b, e.U, e.V, ca, cb)
					}
				}
			}
			for v := range cur {
				cur[v] = lv.Quot[cur[v]]
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResidualMatchesSerial drives the engine in residual mode against the
// serial Linial–Saks iteration: per level, same graph, same intra edge
// class, geometric termination.
func TestResidualMatchesSerial(t *testing.T) {
	g := graph.Torus2D(20, 24)
	remaining := g.Edges()
	level := 0
	h, err := BuildHierarchy(Config{Beta: 0.5, Seed: 7, Workers: 4, Residual: true, NeedIntra: true, MaxLevels: 100}, g,
		func(lv *Level) error {
			sub, err := graph.FromEdges(g.NumVertices(), remaining)
			if err != nil {
				t.Fatal(err)
			}
			if lv.G.NumEdges() != sub.NumEdges() {
				t.Fatalf("level %d: %d edges want %d", level, lv.G.NumEdges(), sub.NumEdges())
			}
			d, err := core.Partition(sub, 0.5, core.Options{Seed: xrand.Mix(7, uint64(level))})
			if err != nil {
				t.Fatal(err)
			}
			var wantIntra, next []graph.Edge
			for _, e := range remaining {
				if d.Center[e.U] == d.Center[e.V] {
					wantIntra = append(wantIntra, e)
				} else {
					next = append(next, e)
				}
			}
			if len(lv.IntraEdges) != len(wantIntra) {
				t.Fatalf("level %d: %d intra edges want %d", level, len(lv.IntraEdges), len(wantIntra))
			}
			for i, e := range wantIntra {
				if lv.IntraEdges[i] != e {
					t.Fatalf("level %d: intra[%d]=%v want %v", level, i, lv.IntraEdges[i], e)
				}
			}
			remaining = next
			level++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != 0 || h.Result().Final.NumEdges() != 0 {
		t.Fatalf("residual run left %d edges", len(remaining))
	}
}

// TestOrigEdgeDenseTinyLevel is the regression test for the annotation
// dedup passes on levels with more cut edges than vertices and more
// workers than vertices (a complete tail quotient): the dedup offsets are
// sized by the cut-edge worker count, which exceeds the vertex-based one
// there — this used to index out of range inside a pool worker.
func TestOrigEdgeDenseTinyLevel(t *testing.T) {
	g := graph.Complete(7) // n=7, m=21: c can exceed n at high beta
	for seed := uint64(0); seed < 20; seed++ {
		_, err := BuildHierarchy(Config{Beta: 0.98, Seed: seed, Workers: 8, NeedEdgeOrig: true, NeedIntra: true}, g,
			func(lv *Level) error {
				for a := 0; a < lv.G.NumVertices(); a++ {
					for _, b := range lv.G.Neighbors(uint32(a)) {
						if uint32(a) < b {
							lv.OrigEdge(uint32(a), b)
						}
					}
				}
				return nil
			})
		if err != nil && err != ErrMaxLevels {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRunMaxLevels checks the defensive cap errors out rather than looping.
func TestRunMaxLevels(t *testing.T) {
	g := graph.Grid2D(30, 30)
	_, err := BuildHierarchy(Config{Beta: 0.2, Seed: 1, MaxLevels: 1}, g, nil)
	if err != ErrMaxLevels {
		t.Fatalf("err = %v, want ErrMaxLevels", err)
	}
}

// TestRefineAssignmentMatchesMap checks the sort-based refinement against
// the serial composite-key map at several worker counts.
func TestRefineAssignmentMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := &RefineScratch{}
	for _, n := range []int{1, 2, 97, 5000} {
		prev := make([]uint32, n)
		cur := make([]uint32, n)
		for v := 0; v < n; v++ {
			prev[v] = uint32(rng.Intn(1 + n/3))
			cur[v] = uint32(rng.Intn(1 + n/5))
		}
		type key struct{ a, b uint32 }
		repr := make(map[key]uint32)
		want := make([]uint32, n)
		for v := 0; v < n; v++ {
			k := key{prev[v], cur[v]}
			if _, ok := repr[k]; !ok {
				repr[k] = uint32(v)
			}
		}
		for v := 0; v < n; v++ {
			want[v] = repr[key{prev[v], cur[v]}]
		}
		for _, w := range []int{1, 2, 8} {
			assign := make([]uint32, n)
			RefineAssignment(nil, w, prev, cur, assign, sc)
			for v := 0; v < n; v++ {
				if assign[v] != want[v] {
					t.Fatalf("n=%d workers=%d: assign[%d]=%d want %d", n, w, v, assign[v], want[v])
				}
			}
		}
	}
}
