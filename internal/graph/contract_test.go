package graph

import (
	"errors"
	"math/rand"
	"testing"

	"mpx/internal/parallel"
)

func contractTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	return map[string]*Graph{
		"grid":     Grid2D(40, 55),
		"gnm":      GNM(3000, 12000, 9),
		"powerlaw": RMAT(11, 8000, 4),
		"path":     Path(500),
		"star":     star(t, 300),
		"edgeless": mustFromEdges(t, 64, nil),
		"empty":    mustFromEdges(t, 0, nil),
	}
}

func star(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{0, uint32(v)})
	}
	return mustFromEdges(t, n, edges)
}

func mustFromEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// clusterishLabels mimics decomposition output: pick k random "centers"
// and label every vertex with a random center id, so labels repeat, skip
// values, and appear in scattered first-appearance order.
func clusterishLabels(n, k int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	if k < 1 {
		k = 1
	}
	centers := make([]uint32, k)
	for i := range centers {
		centers[i] = uint32(rng.Intn(n))
	}
	label := make([]uint32, n)
	for v := range label {
		label[v] = centers[rng.Intn(k)]
	}
	return label
}

func graphsEqual(a, b *Graph) bool {
	ao, bo, aa, ba := a.Offsets(), b.Offsets(), a.Adjacency(), b.Adjacency()
	if a.NumVertices() != b.NumVertices() || len(aa) != len(ba) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	return true
}

// TestContractClustersPoolMatchesSerial is the bit-identity property test
// gating the parallel contraction primitive: on every workload family, for
// several label assignments and at workers 1/2/8, ContractClustersPool
// must produce exactly the quotient CSR and vertex mapping of the serial
// map-based ContractClusters, with and without a reused scratch.
func TestContractClustersPoolMatchesSerial(t *testing.T) {
	sc := &ContractScratch{}
	for name, g := range contractTestGraphs(t) {
		n := g.NumVertices()
		for trial := 0; trial < 4; trial++ {
			var label []uint32
			if n > 0 {
				label = clusterishLabels(n, 1+n/(10*(trial+1)), int64(trial)*7+3)
			} else {
				label = []uint32{}
			}
			want, wantQuot, err := ContractClusters(g, label)
			if err != nil {
				t.Fatalf("%s: serial: %v", name, err)
			}
			for _, w := range []int{1, 2, 8} {
				for _, scratch := range []*ContractScratch{nil, sc} {
					got, gotQuot, err := ContractClustersPool(nil, w, g, label, scratch)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					if !graphsEqual(want, got) {
						t.Fatalf("%s trial=%d workers=%d: quotient CSR differs from serial (%v vs %v)",
							name, trial, w, got, want)
					}
					if len(gotQuot) != len(wantQuot) {
						t.Fatalf("%s workers=%d: quot length %d want %d", name, w, len(gotQuot), len(wantQuot))
					}
					for v := range wantQuot {
						if gotQuot[v] != wantQuot[v] {
							t.Fatalf("%s trial=%d workers=%d: quot[%d]=%d want %d",
								name, trial, w, v, gotQuot[v], wantQuot[v])
						}
					}
				}
			}
		}
	}
}

// outOfRangeLabelings returns named labelings of n vertices that each put
// at least one label outside [0, n): all far out, a few repeated far
// values, and a single label equal to n.
func outOfRangeLabelings(n int) map[string][]uint32 {
	gen := map[string]func(v int) uint32{
		"far":   func(v int) uint32 { return uint32(1<<20 + v/7*13) },
		"mixed": func(v int) uint32 { return uint32(1_000_000 + v%5) },
		"one-at-n": func(v int) uint32 {
			if v == n-1 {
				return uint32(n)
			}
			return uint32(v / 3)
		},
	}
	out := make(map[string][]uint32, len(gen))
	for name, f := range gen {
		label := make([]uint32, n)
		for v := range label {
			label[v] = f(v)
		}
		out[name] = label
	}
	return out
}

// TestContractClustersPoolOutOfRangeFallback checks that ContractClustersPool
// has no serial fallback for labels outside [0, n): it rejects them with an
// error wrapping ErrVertexRange, where the slice-based compaction would
// otherwise index past its tables.
func TestContractClustersPoolOutOfRangeFallback(t *testing.T) {
	g := Grid2D(8, 9)
	for name, label := range outOfRangeLabelings(g.NumVertices()) {
		for _, w := range []int{1, 4} {
			if _, _, err := ContractClustersPool(nil, w, g, label, nil); !errors.Is(err, ErrVertexRange) {
				t.Errorf("%s workers=%d: err = %v, want ErrVertexRange", name, w, err)
			}
		}
	}
}

// TestCutSubgraphPoolMatchesFromEdges checks the residual-graph builder
// against the serial reference: filter the edge list by label inequality
// and rebuild with FromEdges.
func TestCutSubgraphPoolMatchesFromEdges(t *testing.T) {
	sc := &ContractScratch{}
	for name, g := range contractTestGraphs(t) {
		n := g.NumVertices()
		var label []uint32
		if n > 0 {
			label = clusterishLabels(n, 1+n/8, 17)
		} else {
			label = []uint32{}
		}
		var cut []Edge
		for _, e := range g.Edges() {
			if label[e.U] != label[e.V] {
				cut = append(cut, e)
			}
		}
		want := mustFromEdges(t, n, cut)
		for _, w := range []int{1, 2, 8} {
			got, err := CutSubgraphPool(nil, w, g, label, sc)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !graphsEqual(want, got) {
				t.Fatalf("%s workers=%d: residual CSR differs from FromEdges (%v vs %v)", name, w, got, want)
			}
		}
	}
}

// TestContractClustersPoolSteadyAllocs pins the allocation contract: with
// a warmed scratch, one contraction allocates only its results (quotient
// offsets + adjacency + quot map and a handful of pool closures), never
// O(m) map or append churn.
func TestContractClustersPoolSteadyAllocs(t *testing.T) {
	g := GNM(4000, 16000, 5)
	label := clusterishLabels(g.NumVertices(), 300, 21)
	sc := &ContractScratch{}
	pool := parallel.NewPool(4)
	defer pool.Close()
	if _, _, err := ContractClustersPool(pool, 4, g, label, sc); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, _, err := ContractClustersPool(pool, 4, g, label, sc); err != nil {
			t.Fatal(err)
		}
	})
	// Results (3 slices) plus submitted loop closures and the radix sort's
	// per-call histograms (~44 measured); the map path costs thousands here.
	if avg > 64 {
		t.Fatalf("steady-state contraction allocates %.1f objects, want <= 64", avg)
	}
}

// FuzzContract holds all four pooled kernels to their serial references on
// one reused ContractScratch at workers 1/2/8: the quotients of
// ContractClustersPool and ContractWeightedClustersPool (weight bits
// included) against ContractClusters and ContractWeightedClusters, the
// residuals of CutSubgraphPool and CutWeightedSubgraphPool against
// FromEdges and FromWeightedEdges of the cut edges, and every call's
// sc.CutArcs against twice CutEdgesPool. The graph has at most 64
// vertices; label bytes repeat cyclically, reduced into [0, n); the
// weights are generic uniform draws (whose sums are order-sensitive) or
// all 1.
func FuzzContract(f *testing.F) {
	f.Add(uint8(12), uint8(30), uint64(1), true, []byte{0, 0, 3, 3, 3, 7})
	f.Add(uint8(64), uint8(255), uint64(2), true, []byte{1, 2})
	f.Add(uint8(40), uint8(90), uint64(3), false, []byte{})
	f.Add(uint8(1), uint8(0), uint64(4), true, []byte{5})
	f.Add(uint8(0), uint8(0), uint64(5), true, []byte{})
	f.Fuzz(func(t *testing.T, nb, mb uint8, seed uint64, random bool, lb []byte) {
		n := int(nb % 65)
		g := mustFromEdges(t, n, nil)
		if n >= 2 {
			g = GNM(n, int64(mb)%(int64(n)*int64(n-1)/2+1), seed)
		}
		wg := RandomWeights(g, 1, 1, 0)
		if random {
			wg = RandomWeights(g, 0.5, 8, seed)
		}
		label := make([]uint32, n)
		for v := range label {
			label[v] = uint32(v)
			if len(lb) > 0 {
				label[v] = uint32(int(lb[v%len(lb)]) % n)
			}
		}
		var cut []Edge
		var wcut []WeightedEdge
		for v := 0; v < n; v++ {
			nbrs, ws := wg.Neighbors(uint32(v))
			for i, u := range nbrs {
				if uint32(v) < u && label[v] != label[u] {
					cut = append(cut, Edge{uint32(v), u})
					wcut = append(wcut, WeightedEdge{U: uint32(v), V: u, W: ws[i]})
				}
			}
		}
		wantQ, wantQuot, err := ContractClusters(g, label)
		if err != nil {
			t.Fatal(err)
		}
		wantWQ, wantWQuot, err := ContractWeightedClusters(wg, label)
		if err != nil {
			t.Fatal(err)
		}
		wantR := mustFromEdges(t, n, cut)
		wantWR, err := FromWeightedEdges(n, wcut)
		if err != nil {
			t.Fatal(err)
		}
		// The fingerprints must agree too: they tell a weighted graph
		// without arcs (empty weights) from an unweighted one (nil weights).
		sameWeighted := func(got, want *WeightedGraph) bool {
			return weightedGraphsEqual(got, want) && got.Fingerprint() == want.Fingerprint()
		}
		sameQuot := func(got, want []uint32) bool {
			if len(got) != len(want) {
				return false
			}
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
			return true
		}
		sc := &ContractScratch{}
		for _, w := range []int{1, 2, 8} {
			cutArcs := 2 * CutEdgesPool(nil, w, g, label)
			checkArcs := func(kernel string) {
				t.Helper()
				if sc.CutArcs != cutArcs {
					t.Fatalf("%s workers=%d: CutArcs %d, want %d", kernel, w, sc.CutArcs, cutArcs)
				}
			}
			q, quot, err := ContractClustersPool(nil, w, g, label, sc)
			if err != nil || !graphsEqual(q, wantQ) || !sameQuot(quot, wantQuot) {
				t.Fatalf("ContractClustersPool workers=%d differs from ContractClusters (err %v)", w, err)
			}
			checkArcs("ContractClustersPool")
			wq, wquot, err := ContractWeightedClustersPool(nil, w, wg, label, sc)
			if err != nil || !sameWeighted(wq, wantWQ) || !sameQuot(wquot, wantWQuot) {
				t.Fatalf("ContractWeightedClustersPool workers=%d differs from ContractWeightedClusters (err %v)", w, err)
			}
			checkArcs("ContractWeightedClustersPool")
			r, err := CutSubgraphPool(nil, w, g, label, sc)
			if err != nil || !graphsEqual(r, wantR) {
				t.Fatalf("CutSubgraphPool workers=%d differs from FromEdges (err %v)", w, err)
			}
			checkArcs("CutSubgraphPool")
			wr, err := CutWeightedSubgraphPool(nil, w, wg, label, sc)
			if err != nil || !sameWeighted(wr, wantWR) {
				t.Fatalf("CutWeightedSubgraphPool workers=%d differs from FromWeightedEdges (err %v)", w, err)
			}
			checkArcs("CutWeightedSubgraphPool")
		}
	})
}
