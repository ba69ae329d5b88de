package core

import (
	"testing"

	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// decompsIdentical compares the fixpoint output (Center, Dist, Parent)
// plus the round schedule of two decompositions bit for bit.
func decompsIdentical(a, b *Decomposition) bool {
	if len(a.Center) != len(b.Center) || a.Rounds != b.Rounds {
		return false
	}
	for i := range a.Center {
		if a.Center[i] != b.Center[i] || a.Dist[i] != b.Dist[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

// TestUnchangedUnderSoundness is the contract test for the incremental
// fixpoint check: whenever UnchangedUnder answers true for a random batch,
// re-partitioning the updated graph with the same options must reproduce
// the decomposition exactly. It also counts accepted batches to guard
// against a vacuous always-false implementation.
func TestUnchangedUnderSoundness(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
	}
	workloads := []workload{
		{"grid", graph.Grid2D(20, 17)},
		{"gnm", graph.GNM(300, 900, 11)},
		{"ws", graph.WattsStrogatz(260, 6, 0.1, 5)},
		{"sparse", graph.GNM(400, 80, 13)},
	}
	for _, wl := range workloads {
		for _, beta := range []float64{0.1, 0.4} {
			verified := 0
			for trial := uint64(0); trial < 40; trial++ {
				opts := Options{Seed: 0x5eed + trial}
				d, err := Partition(wl.g, beta, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !d.HasPlan() {
					t.Fatal("Partition did not retain its shift plan")
				}
				n := uint64(wl.g.NumVertices())
				var b graph.Batch
				edges := wl.g.Edges()
				if trial%2 == 0 {
					// Fully random batch: usually rejected; soundness is what
					// matters when it is not.
					for i := 0; i < 6; i++ {
						u := uint32(xrand.Mix(trial, uint64(i)*2+1) % n)
						v := uint32(xrand.Mix(trial, uint64(i)*2+2) % n)
						b.Insert = append(b.Insert, graph.Edge{U: u, V: v})
					}
					for i := 0; i < 4; i++ {
						b.Delete = append(b.Delete, edges[xrand.Mix(trial, 0x99+uint64(i))%uint64(len(edges))])
					}
				} else {
					// Deletes biased toward non-tree edges: mostly accepted,
					// exercising the accept-then-recheck path on every
					// workload and β.
					for i := 0; i < 8; i++ {
						e := edges[xrand.Mix(trial, 0x99+uint64(i))%uint64(len(edges))]
						if d.Parent[e.U] == e.V || d.Parent[e.V] == e.U {
							continue
						}
						b.Delete = append(b.Delete, e)
					}
				}
				updated, res, err := graph.ApplyBatch(wl.g, b)
				if err != nil {
					t.Fatal(err)
				}
				if !d.UnchangedUnder(res.Inserted, res.Deleted) {
					continue
				}
				verified++
				d2, err := Partition(updated, beta, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !decompsIdentical(d, d2) {
					t.Fatalf("%s beta=%g trial %d: UnchangedUnder accepted a batch that changed the partition (+%d/-%d edges)",
						wl.name, beta, trial, len(res.Inserted), len(res.Deleted))
				}
			}
			t.Logf("%s beta=%g: verified %d/40 random batches", wl.name, beta, verified)
		}
	}
}

// TestUnchangedUnderAcceptsSafeBatches pins the completeness side the E23
// bench depends on: deleting a non-tree (non-parent) edge, and
// re-inserting an edge whose proposal provably lost, must verify — and a
// support-edge delete must not.
func TestUnchangedUnderAcceptsSafeBatches(t *testing.T) {
	g := graph.Grid2D(30, 30)
	d, err := Partition(g, 0.2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var nonTree, tree []graph.Edge
	for _, e := range g.Edges() {
		if d.Parent[e.U] == e.V || d.Parent[e.V] == e.U {
			tree = append(tree, e)
		} else {
			nonTree = append(nonTree, e)
		}
	}
	if len(nonTree) == 0 || len(tree) == 0 {
		t.Fatal("degenerate decomposition: no tree/non-tree split")
	}
	del := nonTree[:10]
	if !d.UnchangedUnder(nil, del) {
		t.Fatal("deleting non-tree edges must verify")
	}
	// Re-inserting what was just deleted verifies against the
	// post-delete decomposition, which is bit-identical to d — its
	// proposals lost before, so they lose again.
	updated, res, err := graph.ApplyBatch(g, graph.Batch{Delete: del})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Partition(updated, 0.2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !decompsIdentical(d, d2) {
		t.Fatal("non-tree delete changed the partition (soundness bug)")
	}
	if !d2.UnchangedUnder(res.Deleted, nil) {
		t.Fatal("re-inserting previously losing edges must verify")
	}
	if d.UnchangedUnder(nil, tree[:1]) {
		t.Fatal("deleting a support edge must NOT verify")
	}
}

// TestUnchangedUnderRequiresPlan checks the guard rail: no plan disables
// the check.
func TestUnchangedUnderRequiresPlan(t *testing.T) {
	bare := &Decomposition{}
	if bare.HasPlan() || bare.UnchangedUnder(nil, nil) {
		t.Fatal("bare decomposition must refuse")
	}
}

// TestUnchangedUnderIsolatedEndpoints checks single-edge inserts with an
// isolated endpoint against a rebuild, under both tie-breaks. Partition
// ranks only vertices with edges, so these are the inserts whose key
// comparison must recompute the rank of a center that has none.
func TestUnchangedUnderIsolatedEndpoints(t *testing.T) {
	g := graph.GNM(400, 80, 13)
	n := uint64(g.NumVertices())
	for _, tie := range []TieBreak{TieFractional, TiePermutation} {
		opts := Options{Seed: 21, TieBreak: tie}
		d := mustPartition(t, g, 0.4, opts)
		verified := 0
		for i := uint64(0); i < 2000; i++ {
			u, v := uint32(xrand.Mix(i, 1)%n), uint32(xrand.Mix(i, 2)%n)
			if u == v || g.HasEdge(u, v) || g.Degree(u) > 0 && g.Degree(v) > 0 {
				continue
			}
			updated, res, err := graph.ApplyBatch(g, graph.Batch{Insert: []graph.Edge{{U: u, V: v}}})
			if err != nil {
				t.Fatal(err)
			}
			if !d.UnchangedUnder(res.Inserted, nil) {
				continue
			}
			verified++
			if !decompsIdentical(d, mustPartition(t, updated, 0.4, opts)) {
				t.Fatalf("tie=%v: UnchangedUnder accepted inserting {%d,%d}, which changed the partition", tie, u, v)
			}
		}
		if verified == 0 {
			t.Fatalf("tie=%v: no insert at an isolated vertex verified; the check is vacuous", tie)
		}
		t.Logf("tie=%v: verified %d inserts", tie, verified)
	}
}
