package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// fullLoopRounds is |{b(v)} ∪ {ℓ(v)+1}| over every vertex v, where b(v) =
// ⌊δ_max − δ_v⌋ is v's start round and ℓ(v) its claim round: the rounds a
// loop over all vertices runs, isolated ones included, because a round
// runs exactly when some vertex may start in it or some vertex was
// claimed in the round before.
func fullLoopRounds(d *Decomposition) int {
	start := func(v uint32) int32 { return int32(math.Floor(d.DeltaMax - d.Shifts[v])) }
	rounds := make(map[int32]bool)
	for v := range d.Center {
		rounds[start(uint32(v))] = true
		rounds[d.Dist[v]+start(d.Center[v])+1] = true
	}
	return len(rounds)
}

// checkSparsePartition is the shared check of TestPartitionSparseMatchesReference
// and FuzzPartition. For each TieBreak, Partition at workers 1/2/8 in
// every direction must give PartitionSequential's Center, Dist and
// Parent, one Rounds value, and that value must be the full loop's count.
func checkSparsePartition(t *testing.T, g *graph.Graph, beta float64, seed uint64) {
	t.Helper()
	for _, tie := range []TieBreak{TieFractional, TiePermutation} {
		seq, err := PartitionSequential(g, beta, Options{Seed: seed, TieBreak: tie})
		if err != nil {
			t.Fatal(err)
		}
		rounds := -1
		for _, dir := range []Direction{DirectionForcePush, DirectionForcePull, DirectionAuto} {
			for _, w := range []int{1, 2, 8} {
				d := mustPartition(t, g, beta, Options{Seed: seed, TieBreak: tie, Direction: dir, Workers: w})
				for v := range seq.Center {
					if d.Center[v] != seq.Center[v] || d.Dist[v] != seq.Dist[v] || d.Parent[v] != seq.Parent[v] {
						t.Fatalf("n=%d m=%d beta=%g seed=%d tie=%v dir=%v workers=%d: vertex %d has center/dist/parent %d/%d/%d, reference %d/%d/%d",
							g.NumVertices(), g.NumEdges(), beta, seed, tie, dir, w, v,
							d.Center[v], d.Dist[v], d.Parent[v], seq.Center[v], seq.Dist[v], seq.Parent[v])
					}
				}
				if rounds < 0 {
					rounds = d.Rounds
					if want := fullLoopRounds(d); rounds != want {
						t.Fatalf("n=%d m=%d beta=%g seed=%d tie=%v: Rounds=%d, full loop runs %d",
							g.NumVertices(), g.NumEdges(), beta, seed, tie, rounds, want)
					}
				} else if d.Rounds != rounds {
					t.Fatalf("n=%d m=%d beta=%g seed=%d tie=%v dir=%v workers=%d: Rounds=%d want %d",
						g.NumVertices(), g.NumEdges(), beta, seed, tie, dir, w, d.Rounds, rounds)
				}
			}
		}
	}
}

// TestPartitionSparseMatchesReference runs the shared check on graphs
// whose vertices are mostly isolated, the shape of a late Linial–Saks
// residual level.
func TestPartitionSparseMatchesReference(t *testing.T) {
	path := make([]graph.Edge, 0, 29)
	for v := uint32(0); v < 29; v++ {
		path = append(path, graph.Edge{U: v, V: v + 1})
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"edgeless", mustFromEdges(t, 100, nil)},
		{"one-edge", graph.GNM(2048, 1, 1)},
		{"gnm-1%", graph.GNM(2048, 20, 2)},
		{"gnm-30%", graph.GNM(1000, 300, 3)},
		{"gnm-100%", graph.GNM(500, 500, 4)},
		{"path+isolated", mustFromEdges(t, 300, path)},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0.05, 0.2, 0.6} {
			for _, seed := range []uint64{1, 77} {
				checkSparsePartition(t, tc.g, beta, seed)
			}
		}
	}
}

// FuzzPartition runs the shared check on random graphs of up to 2,048
// vertices and at most one edge per vertex, so usually many vertices are
// isolated.
func FuzzPartition(f *testing.F) {
	f.Add(uint16(2047), uint16(1), uint64(1), byte(18))
	f.Add(uint16(300), uint16(40), uint64(7), byte(3))
	f.Add(uint16(64), uint16(0), uint64(3), byte(50)) // edgeless
	f.Add(uint16(1), uint16(1), uint64(5), byte(90))
	f.Add(uint16(900), uint16(900), uint64(42), byte(8))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64, betaRaw byte) {
		n := int(nRaw%2047) + 2
		maxM := int64(n) * int64(n-1) / 2
		m := int64(mRaw) % (min(int64(n), maxM) + 1)
		beta := 0.02 + float64(betaRaw%96)/100
		checkSparsePartition(t, graph.GNM(n, m, seed), beta, seed)
	})
}

// TestPartitionSparseCost gates, in counts, the partition of a one-edge
// graph on 160,000 vertices at β = 0.2, the shape of a late Linial–Saks
// residual level on a road network. Its rounds touch two vertices, so pool
// submissions and allocations must not grow with n. Counts repeat exactly
// where times do not. The bounds leave headroom over the measured 10
// submissions and 59 allocations (61 under -race; x86-64, Go 1.24); a
// round loop over all n vertices takes 104 and 761.
func TestPartitionSparseCost(t *testing.T) {
	const n = 160000
	g := mustFromEdges(t, n, []graph.Edge{{U: 4242, V: 123456}})
	pool := parallel.NewPool(2)
	defer pool.Close()
	pool.SetFaultHook(&parallel.FaultHook{}) // makes SubmitCount count
	opts := Options{Seed: 11, Workers: 2, Pool: pool}

	before := pool.SubmitCount()
	d := mustPartition(t, g, 0.2, opts)
	submits := pool.SubmitCount() - before
	if submits > 16 {
		t.Errorf("one-edge partition made %d pool submissions, want <= 16", submits)
	}
	if want := fullLoopRounds(d); d.Rounds != want {
		t.Errorf("Rounds = %d, full loop runs %d", d.Rounds, want)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Partition(g, 0.2, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 128 {
		t.Errorf("one-edge partition allocates %.0f objects, want <= 128", allocs)
	}
	t.Logf("%d submissions, %.0f allocations, %d rounds", submits, allocs, d.Rounds)
}
