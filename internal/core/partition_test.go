package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

func mustPartition(t *testing.T, g *graph.Graph, beta float64, opts Options) *Decomposition {
	t.Helper()
	d, err := Partition(g, beta, opts)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return d
}

func TestPartitionRejectsBadBeta(t *testing.T) {
	g := graph.Path(4)
	for _, beta := range []float64{-1, 0, 1, 2} {
		if _, err := Partition(g, beta, Options{}); err == nil {
			t.Errorf("beta=%g: expected error", beta)
		}
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := mustPartition(t, g, 0.1, Options{})
	if d.NumVertices() != 0 || d.NumClusters() != 0 {
		t.Errorf("empty graph: got %d vertices, %d clusters", d.NumVertices(), d.NumClusters())
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPartitionSingleVertex(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := mustPartition(t, g, 0.1, Options{Seed: 7})
	if d.NumClusters() != 1 || d.Center[0] != 0 {
		t.Errorf("single vertex: clusters=%d center=%d", d.NumClusters(), d.Center[0])
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPartitionValidOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(200)},
		{"cycle", graph.Cycle(100)},
		{"grid", graph.Grid2D(20, 30)},
		{"torus", graph.Torus2D(12, 12)},
		{"complete", graph.Complete(40)},
		{"star", graph.Star(100)},
		{"tree", graph.BinaryTree(255)},
		{"hypercube", graph.Hypercube(8)},
		{"gnm", graph.GNM(300, 900, 11)},
		{"rmat", graph.RMAT(9, 2000, 5)},
		{"disconnected", mustFromEdges(t, 10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})},
	}
	betas := []float64{0.05, 0.2, 0.5}
	for _, tc := range cases {
		for _, beta := range betas {
			d := mustPartition(t, tc.g, beta, Options{Seed: 42})
			if err := d.Validate(); err != nil {
				t.Errorf("%s beta=%g: %v", tc.name, beta, err)
			}
		}
	}
}

func mustFromEdges(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionMatchesSequentialReference(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Grid2D(15, 17),
		graph.GNM(200, 600, 3),
		graph.Path(100),
		graph.RMAT(8, 1200, 9),
		graph.BinaryTree(127),
	}
	for gi, g := range graphs {
		for _, seed := range []uint64{0, 1, 99} {
			for _, tie := range []TieBreak{TieFractional, TiePermutation} {
				opts := Options{Seed: seed, TieBreak: tie, Workers: 4}
				par := mustPartition(t, g, 0.15, opts)
				seq, err := PartitionSequential(g, 0.15, opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := range par.Center {
					if par.Center[v] != seq.Center[v] {
						t.Fatalf("graph %d seed %d tie %v: center mismatch at %d: par=%d seq=%d",
							gi, seed, tie, v, par.Center[v], seq.Center[v])
					}
					if par.Dist[v] != seq.Dist[v] {
						t.Fatalf("graph %d seed %d tie %v: dist mismatch at %d: par=%d seq=%d",
							gi, seed, tie, v, par.Dist[v], seq.Dist[v])
					}
					if par.Parent[v] != seq.Parent[v] {
						t.Fatalf("graph %d seed %d tie %v: parent mismatch at %d: par=%d seq=%d",
							gi, seed, tie, v, par.Parent[v], seq.Parent[v])
					}
				}
			}
		}
	}
}

func TestPartitionDeterministicAcrossWorkerCounts(t *testing.T) {
	g := graph.Grid2D(30, 40)
	base := mustPartition(t, g, 0.1, Options{Seed: 5, Workers: 1})
	for _, w := range []int{2, 3, 8} {
		d := mustPartition(t, g, 0.1, Options{Seed: 5, Workers: w})
		for v := range base.Center {
			if base.Center[v] != d.Center[v] || base.Dist[v] != d.Dist[v] {
				t.Fatalf("workers=%d: output differs at vertex %d", w, v)
			}
		}
	}
}

func TestPartitionMatchesExactFloatAlgorithm(t *testing.T) {
	// The integer-round implementation with fractional tie-breaking must
	// agree with the literal Algorithm 2 Dijkstra on real shifted distances
	// (fixed seeds; disagreement would need a float rounding anomaly).
	graphs := []*graph.Graph{
		graph.Grid2D(12, 12),
		graph.GNM(150, 400, 17),
		graph.Cycle(60),
	}
	for gi, g := range graphs {
		opts := Options{Seed: 1234, TieBreak: TieFractional}
		par := mustPartition(t, g, 0.2, opts)
		exact, err := PartitionExact(g, 0.2, opts)
		if err != nil {
			t.Fatal(err)
		}
		mismatch := 0
		for v := range par.Center {
			if par.Center[v] != exact.Center[v] {
				mismatch++
			}
		}
		if mismatch != 0 {
			t.Errorf("graph %d: %d/%d assignments differ from exact float algorithm",
				gi, mismatch, len(par.Center))
		}
	}
}

func TestPartitionRadiusBoundedByShift(t *testing.T) {
	g := graph.Grid2D(40, 40)
	d := mustPartition(t, g, 0.05, Options{Seed: 2})
	for v, c := range d.Center {
		if float64(d.Dist[v]) > d.Shifts[c] {
			t.Fatalf("vertex %d: dist %d > center shift %g", v, d.Dist[v], d.Shifts[c])
		}
	}
	if float64(d.MaxRadius()) > d.DeltaMax {
		t.Errorf("max radius %d exceeds delta max %g", d.MaxRadius(), d.DeltaMax)
	}
}

func TestPartitionCutFractionReasonable(t *testing.T) {
	// Corollary 4.5: expected cut fraction is O(β). With the midpoint
	// argument the constant is small; allow generous slack for a single
	// seed but catch order-of-magnitude regressions.
	g := graph.Grid2D(100, 100)
	for _, beta := range []float64{0.05, 0.1, 0.2} {
		d := mustPartition(t, g, beta, Options{Seed: 13})
		if cf := d.CutFraction(); cf > 4*beta {
			t.Errorf("beta=%g: cut fraction %g exceeds 4beta", beta, cf)
		}
	}
}

func TestPartitionDiameterBound(t *testing.T) {
	// Lemma 4.2: whp every shift (hence every piece radius) is at most
	// O(log n / β). Check radius <= 6 ln n / beta for a few seeds.
	g := graph.Grid2D(60, 60)
	n := float64(g.NumVertices())
	for _, seed := range []uint64{1, 2, 3} {
		for _, beta := range []float64{0.1, 0.3} {
			d := mustPartition(t, g, beta, Options{Seed: seed})
			bound := 6 * math.Log(n) / beta
			if float64(d.MaxRadius()) > bound {
				t.Errorf("seed=%d beta=%g: max radius %d exceeds %g", seed, beta, d.MaxRadius(), bound)
			}
		}
	}
}

func TestPartitionDisconnectedGraphClustersStayWithinComponents(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 6, V: 7}}
	g := mustFromEdges(t, 9, edges)
	labels, _ := graph.ConnectedComponents(g)
	d := mustPartition(t, g, 0.2, Options{Seed: 3})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, c := range d.Center {
		if labels[v] != labels[c] {
			t.Errorf("vertex %d in component %d assigned to center %d in component %d",
				v, labels[v], c, labels[c])
		}
	}
}

func TestPartitionQuantileShifts(t *testing.T) {
	g := graph.Grid2D(25, 25)
	d := mustPartition(t, g, 0.1, Options{Seed: 6, ShiftSource: ShiftQuantile})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	seq, err := PartitionSequential(g, 0.1, Options{Seed: 6, ShiftSource: ShiftQuantile})
	if err != nil {
		t.Fatal(err)
	}
	for v := range d.Center {
		if d.Center[v] != seq.Center[v] {
			t.Fatalf("quantile shifts: parallel/sequential mismatch at %d", v)
		}
	}
}

func TestPartitionCoversAllBetas(t *testing.T) {
	g := graph.Grid2D(10, 10)
	for _, beta := range []float64{0.001, 0.01, 0.49, 0.9, 0.999} {
		d := mustPartition(t, g, beta, Options{Seed: 8})
		if err := d.Validate(); err != nil {
			t.Errorf("beta=%g: %v", beta, err)
		}
	}
}

func TestHighBetaProducesManyClusters(t *testing.T) {
	g := graph.Grid2D(50, 50)
	lo := mustPartition(t, g, 0.02, Options{Seed: 21})
	hi := mustPartition(t, g, 0.5, Options{Seed: 21})
	if lo.NumClusters() >= hi.NumClusters() {
		t.Errorf("expected fewer clusters at beta=0.02 (%d) than at 0.5 (%d)",
			lo.NumClusters(), hi.NumClusters())
	}
}

func TestDecompositionAccessors(t *testing.T) {
	g := graph.Grid2D(8, 8)
	d := mustPartition(t, g, 0.3, Options{Seed: 9})
	sizes := d.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.NumVertices() {
		t.Errorf("cluster sizes sum to %d, want %d", total, g.NumVertices())
	}
	if len(sizes) != d.NumClusters() {
		t.Errorf("NumClusters %d != len(ClusterSizes) %d", d.NumClusters(), len(sizes))
	}
	centers := d.Centers()
	if len(centers) != d.NumClusters() {
		t.Errorf("Centers length %d != NumClusters %d", len(centers), d.NumClusters())
	}
	members := d.Members()
	for c, vs := range members {
		if sizes[c] != len(vs) {
			t.Errorf("cluster %d: size %d != members %d", c, sizes[c], len(vs))
		}
	}
	radii := d.Radii()
	if len(radii) != d.NumClusters() {
		t.Errorf("Radii length %d != NumClusters %d", len(radii), d.NumClusters())
	}
	var maxR int32
	for _, r := range radii {
		if r > maxR {
			maxR = r
		}
	}
	if maxR != d.MaxRadius() {
		t.Errorf("max of Radii %d != MaxRadius %d", maxR, d.MaxRadius())
	}
	hist := d.SizeHistogram()
	if len(hist) != d.NumClusters() {
		t.Errorf("SizeHistogram length %d != NumClusters %d", len(hist), d.NumClusters())
	}
}

func TestStrongDiameterAtMostTwiceRadius(t *testing.T) {
	g := graph.Grid2D(15, 15)
	d := mustPartition(t, g, 0.15, Options{Seed: 10})
	diams := d.StrongDiameters()
	radii := d.Radii()
	for c, diam := range diams {
		if diam > 2*radii[c] {
			t.Errorf("cluster %d: strong diameter %d exceeds 2x radius %d", c, diam, radii[c])
		}
		if diam < radii[c] {
			t.Errorf("cluster %d: strong diameter %d below radius %d", c, diam, radii[c])
		}
	}
}
