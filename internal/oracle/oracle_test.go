package oracle

import (
	"container/heap"
	"sync"
	"testing"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/xrand"
)

// treeBFS is the serial reference for DistanceOracle: breadth-first search
// from src over the tree edges only.
func treeBFS(n int, edges []graph.Edge, src uint32) []int32 {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []uint32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

type pqItem struct {
	v uint32
	d float64
}
type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// treeDijkstra is the serial reference for WeightedDistanceOracle:
// Dijkstra from src restricted to the tree edges.
func treeDijkstra(n int, edges []graph.WeightedEdge, src uint32) []float64 {
	type arc struct {
		to uint32
		w  float64
	}
	adj := make([][]arc, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], arc{e.V, e.W})
		adj[e.V] = append(adj[e.V], arc{e.U, e.W})
	}
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, a := range adj[it.v] {
			nd := it.d + a.w
			if dist[a.to] < 0 || nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(q, pqItem{a.to, nd})
			}
		}
	}
	return dist
}

func TestDistanceOracleMatchesTreeBFS(t *testing.T) {
	g := graph.GNM(1500, 5000, 17)
	tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 4, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	o := NewDistance(tr, nil, 0)
	n := g.NumVertices()
	rng := xrand.NewSplitMix64(1)
	for s := 0; s < 6; s++ {
		src := uint32(rng.Intn(n))
		ref := treeBFS(n, tr.Edges, src)
		for v := 0; v < n; v++ {
			if got := o.Dist(src, uint32(v)); got != ref[v] {
				t.Fatalf("Dist(%d,%d)=%d, tree BFS=%d", src, v, got, ref[v])
			}
		}
	}
}

func TestWeightedDistanceOracleMatchesTreeDijkstra(t *testing.T) {
	g := graph.GNM(900, 3000, 23)
	wg := graph.RandomWeights(g, 1, 12, 6)
	tr, err := lowstretch.BuildWeightedPoolCtx(nil, nil, wg, 0.4, 8, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	o := NewWeightedDistance(tr, nil, 0)
	n := wg.NumVertices()
	rng := xrand.NewSplitMix64(2)
	for s := 0; s < 4; s++ {
		src := uint32(rng.Intn(n))
		ref := treeDijkstra(n, tr.Edges, src)
		for v := 0; v < n; v++ {
			got := o.Dist(src, uint32(v))
			want := ref[v]
			// The oracle sums wdepth differences along the unique tree path;
			// Dijkstra sums the same weights in a different association
			// order, so allow relative float slack.
			if want < 0 || got < 0 {
				if want != got {
					t.Fatalf("Dist(%d,%d)=%g, tree Dijkstra=%g", src, v, got, want)
				}
				continue
			}
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-9*(1+want) {
				t.Fatalf("Dist(%d,%d)=%g, tree Dijkstra=%g", src, v, got, want)
			}
		}
	}
}

func TestMembershipOracleMatchesQuotientWalk(t *testing.T) {
	g := graph.GNM(1000, 3500, 31)
	var centers, quots [][]uint32
	h, err := hier.BuildHierarchy(hier.Config{Beta: 0.25, Seed: 11}, g, func(lv *hier.Level) error {
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
	o := NewMembership(h, nil, 0)
	if o.Levels() != len(centers) {
		t.Fatalf("oracle has %d levels, hierarchy visited %d", o.Levels(), len(centers))
	}
	n := g.NumVertices()
	if o.NumVertices() != n {
		t.Fatalf("NumVertices=%d, want %d", o.NumVertices(), n)
	}
	for l := 0; l < o.Levels(); l++ {
		for v := 0; v < n; v++ {
			cur := uint32(v)
			for i := 0; i < l; i++ {
				cur = quots[i][cur]
			}
			want := centers[l][cur]
			if got := o.ClusterOf(uint32(v), l); got != want {
				t.Fatalf("ClusterOf(%d,%d)=%d, quotient walk=%d", v, l, got, want)
			}
		}
	}
	// SameCluster consistency on random pairs.
	rng := xrand.NewSplitMix64(3)
	for q := 0; q < 5000; q++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		l := rng.Intn(o.Levels())
		want := o.ClusterOf(u, l) == o.ClusterOf(v, l)
		if got := o.SameCluster(u, v, l); got != want {
			t.Fatalf("SameCluster(%d,%d,%d)=%v, ClusterOf says %v", u, v, l, got, want)
		}
	}
}

// randomPairs draws q pairs over [0, n).
func randomPairs(n, q int, seed uint64) []Pair {
	rng := xrand.NewSplitMix64(seed)
	pairs := make([]Pair, q)
	for i := range pairs {
		pairs[i] = Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	return pairs
}

// TestBatchMatchesScalarAtWorkerCounts pins every batch API to its scalar
// loop at workers 1, 2 and 8, across batch sizes straddling the inline
// grain.
func TestBatchMatchesScalarAtWorkerCounts(t *testing.T) {
	g := graph.GNM(2000, 7000, 41)
	tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 9, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.BuildHierarchy(hier.Config{Beta: 0.2, Seed: 9}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.RandomWeights(g, 1, 5, 1)
	wtr, err := lowstretch.BuildWeightedPoolCtx(nil, nil, wg, 0.4, 9, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, q := range []int{0, 1, 255, 256, 257, 10000} {
		pairs := randomPairs(n, q, uint64(q)+100)
		verts := make([]uint32, q)
		for i := range verts {
			verts[i] = pairs[i].U
		}
		for _, w := range []int{1, 2, 8} {
			do := NewDistance(tr, nil, w)
			wo := NewWeightedDistance(wtr, nil, w)
			mo := NewMembership(h, nil, w)

			dOut := make([]int32, q)
			do.DistBatch(pairs, dOut)
			for i, p := range pairs {
				if want := do.Dist(p.U, p.V); dOut[i] != want {
					t.Fatalf("q=%d w=%d DistBatch[%d]=%d, scalar=%d", q, w, i, dOut[i], want)
				}
			}

			fOut := make([]float64, q)
			wo.DistBatch(pairs, fOut)
			for i, p := range pairs {
				if want := wo.Dist(p.U, p.V); fOut[i] != want {
					t.Fatalf("q=%d w=%d weighted DistBatch[%d]=%g, scalar=%g", q, w, i, fOut[i], want)
				}
			}

			if mo.Levels() > 0 {
				lvl := mo.Levels() - 1
				cOut := make([]uint32, q)
				mo.ClusterBatch(lvl, verts, cOut)
				for i, v := range verts {
					if want := mo.ClusterOf(v, lvl); cOut[i] != want {
						t.Fatalf("q=%d w=%d ClusterBatch[%d]=%d, scalar=%d", q, w, i, cOut[i], want)
					}
				}
				sOut := make([]bool, q)
				mo.SameClusterBatch(lvl, pairs, sOut)
				for i, p := range pairs {
					if want := mo.SameCluster(p.U, p.V, lvl); sOut[i] != want {
						t.Fatalf("q=%d w=%d SameClusterBatch[%d]=%v, scalar=%v", q, w, i, sOut[i], want)
					}
				}
			}
		}
	}
}

// TestConcurrentReaders hammers one oracle set from many goroutines with
// no mutation in flight; run under -race this pins the concurrent-reader
// guarantee of docs/queries.md.
func TestConcurrentReaders(t *testing.T) {
	g := graph.Grid2D(60, 50)
	tr, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 5, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.BuildHierarchy(hier.Config{Beta: 0.2, Seed: 5}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	do := NewDistance(tr, nil, 4)
	mo := NewMembership(h, nil, 4)
	n := g.NumVertices()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			pairs := randomPairs(n, 4096, seed)
			dOut := make([]int32, len(pairs))
			sOut := make([]bool, len(pairs))
			for iter := 0; iter < 10; iter++ {
				do.DistBatch(pairs, dOut)
				mo.SameClusterBatch(0, pairs, sOut)
				for i, p := range pairs {
					if dOut[i] != do.Dist(p.U, p.V) {
						t.Errorf("concurrent DistBatch diverged at %d", i)
						return
					}
					_ = sOut[i]
				}
			}
		}(uint64(r))
	}
	wg.Wait()
}

// TestMembershipSnapshotSurvivesUpdate pins the snapshot contract: an
// oracle built before a hierarchy update answers as of construction.
func TestMembershipSnapshotSurvivesUpdate(t *testing.T) {
	g := graph.Grid2D(25, 25)
	n := g.NumVertices()
	h, err := hier.BuildHierarchy(hier.Config{Beta: 0.25, Seed: 2}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewMembership(h, nil, 0)
	before := make([][]uint32, o.Levels())
	for l := range before {
		before[l] = make([]uint32, n)
		for v := 0; v < n; v++ {
			before[l][v] = o.ClusterOf(uint32(v), l)
		}
	}
	if _, err := h.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{{U: 0, V: uint32(n - 1)}}}, nil); err != nil {
		t.Fatal(err)
	}
	for l := range before {
		for v := 0; v < n; v++ {
			if o.ClusterOf(uint32(v), l) != before[l][v] {
				t.Fatalf("snapshot mutated by Update at level %d vertex %d", l, v)
			}
		}
	}
}
