package mpx_bench

import (
	"runtime"
	"testing"
	"time"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/xrand"
)

// e23Setup builds the E23 workload: a ≥100k-vertex grid, a persistent
// hierarchy over it, and a batch of ~500 intra-cluster non-tree edges of
// level 0 — edges whose deletion (and re-insertion) provably preserves
// every level's partition fixpoint, so an UpdateCtx only refreshes level 0
// and splices everything above it. The batch touches ≤1% of the vertices.
func e23Setup(b *testing.B) (*graph.Graph, hier.Config, *hier.Hierarchy, []graph.Edge) {
	b.Helper()
	g := graph.Grid2D(350, 300) // 105000 vertices
	cfg := hier.Config{
		Beta:         0.15,
		Seed:         3,
		Workers:      8,
		Pool:         benchPool,
		NeedEdgeOrig: true,
	}
	// Recover level 0's decomposition exactly as the hierarchy derives it
	// (seed mixed with the level index) to classify edges.
	d0, err := core.Partition(g, cfg.Beta, core.Options{
		Seed: xrand.Mix(cfg.Seed, 0), Workers: cfg.Workers, Pool: benchPool,
	})
	if err != nil {
		b.Fatal(err)
	}
	var batch []graph.Edge
	for _, e := range g.Edges() {
		if d0.Center[e.U] == d0.Center[e.V] && d0.Parent[e.U] != e.V && d0.Parent[e.V] != e.U {
			batch = append(batch, e)
			if len(batch) == 500 {
				break
			}
		}
	}
	if len(batch) < 500 {
		b.Fatalf("only %d intra non-tree edges found", len(batch))
	}
	if maxDirty := g.NumVertices() / 100; 2*len(batch) > maxDirty {
		b.Fatalf("batch may touch %d vertices, above the 1%% budget %d", 2*len(batch), maxDirty)
	}
	h, err := hier.BuildHierarchy(cfg, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	return g, cfg, h, batch
}

// checkE23Stats asserts the damage-frontier contract the E23 experiment is
// about: the batch re-derives nothing, refreshes exactly level 0, and
// splices every level above it.
func checkE23Stats(b *testing.B, us hier.UpdateStats, levels, n int) {
	b.Helper()
	if us.Rederived != 0 || us.Refreshed != 1 || us.Reused != levels-1 {
		b.Fatalf("update did not stop at the damage frontier: %+v (levels=%d)", us, levels)
	}
	if us.DirtyVertices > n/100 {
		b.Fatalf("batch dirtied %d vertices, above the 1%% budget %d", us.DirtyVertices, n/100)
	}
}

// BenchmarkE23IncrementalUpdate is the incremental-vs-rebuild experiment:
// batched edge updates touching ≤1% of the vertices of a 105k-vertex grid,
// applied through Hierarchy.UpdateCtx (alternating delete/re-insert of the
// same intra-cluster edge set, so the hierarchy returns to a known state
// every two batches). It asserts the reuse stats per batch and fails
// unless UpdateCtx beats a from-scratch BuildHierarchy by ≥3× wall-clock;
// the measured speedup is reported as a metric (and lands in
// BENCH_E23.json via the JSON harness).
func BenchmarkE23IncrementalUpdate(b *testing.B) {
	g, cfg, h, batch := e23Setup(b)
	levels := h.Levels()
	n := g.NumVertices()

	del := graph.Batch{Delete: batch}
	ins := graph.Batch{Insert: batch}

	// Explicit wall-clock comparison, amortized over delete+insert pairs.
	const trials = 3
	start := time.Now()
	for t := 0; t < trials; t++ {
		for _, bb := range []graph.Batch{del, ins} {
			us, err := h.UpdateCtx(nil, bb, nil)
			if err != nil {
				b.Fatal(err)
			}
			checkE23Stats(b, us, levels, n)
		}
	}
	updatePerOp := time.Since(start) / (2 * trials)
	start = time.Now()
	for t := 0; t < 2*trials; t++ {
		if _, err := hier.BuildHierarchy(cfg, g, nil); err != nil {
			b.Fatal(err)
		}
	}
	rebuildPerOp := time.Since(start) / (2 * trials)
	speedup := float64(rebuildPerOp) / float64(updatePerOp)
	if speedup < 3 {
		b.Fatalf("incremental update is only %.2fx faster than rebuild (update %v, rebuild %v); want >= 3x",
			speedup, updatePerOp, rebuildPerOp)
	}

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := del
		if i%2 == 1 {
			bb = ins
		}
		us, err := h.UpdateCtx(nil, bb, nil)
		if err != nil {
			b.Fatal(err)
		}
		checkE23Stats(b, us, levels, n)
	}
	b.StopTimer()
	// ResetTimer wipes user metrics, so report after the timed loop.
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(levels), "levels")
}

// BenchmarkE23RebuildBaseline is the comparison arm: the same hierarchy
// built from scratch (what every batch would cost without UpdateCtx).
func BenchmarkE23RebuildBaseline(b *testing.B) {
	g := graph.Grid2D(350, 300)
	cfg := hier.Config{
		Beta:         0.15,
		Seed:         3,
		Workers:      8,
		Pool:         benchPool,
		NeedEdgeOrig: true,
	}
	b.ResetTimer()
	b.ReportAllocs()
	var levels int
	for i := 0; i < b.N; i++ {
		h, err := hier.BuildHierarchy(cfg, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		levels = h.Levels()
	}
	b.ReportMetric(float64(levels), "levels")
}

// e23ClearedSlack is what a cleared update may allocate: the batch's
// canonical and arc-edit slices, the overlay rows its new graph carries,
// the staged level and stat arrays, and the pool closures — O(batch +
// overlay + levels) bytes, far below one copy of the graph's CSR. In
// update-query's pattern, where each op deletes the edge the one before
// inserted, the overlay holds one edge's rows; an overlay that no delete
// shrinks grows up to 1/64 of the CSR (internal/graph's overlayShare), and
// TestClearedStreamAllocs holds that case under this slack too.
const e23ClearedSlack = 128 << 10

// clearedSetup builds the hierarchy perfbench's update-query workload
// maintains, on the preferential-attachment graph PA(n, 4) with β = 0.2,
// and draws k distinct friend-of-friend edges absent from the graph that
// pass level 0's UnchangedUnder, so inserting any of them re-derives no
// level. It also returns the graph's CSR size, 8(n+1) + 8m bytes.
func clearedSetup(tb testing.TB, n, k int) (*lowstretch.Incremental, []graph.Edge, int64) {
	const deg, seed, beta = 4, 0x5eed, 0.2
	g := graph.PreferentialAttachment(n, deg, seed)
	inc, err := lowstretch.BuildIncrementalPoolCtx(nil, benchPool, g, beta, seed, 0, core.DirectionAuto)
	if err != nil {
		tb.Fatal(err)
	}
	// Level 0's decomposition, derived as the hierarchy derives it.
	d0, err := core.Partition(g, beta, core.Options{Seed: xrand.Mix(seed, 0), Pool: benchPool})
	if err != nil {
		tb.Fatal(err)
	}
	return inc, clearingFoFEdges(tb, g, d0, k), 8*int64(g.NumVertices()+1) + 8*g.NumEdges()
}

// clearedUpdates is the cleared op of perfbench's update-query workload on
// PA(n, 4) (clearedSetup): one clearing edge inserted and deleted in turn
// through Incremental.UpdateCtx, then oracle.NewMembership, the refresh a
// query server runs after every update. It returns the graph's CSR size
// and op, which runs the i-th update; one insert/delete pair has run
// already, so the first NewMembership has composed the cluster maps. check
// runs after the ops, and fails if the oracle and the tree disagree on the
// level count.
func clearedUpdates(tb testing.TB, n int) (csr int64, op func(i int), check func()) {
	inc, edges, csr := clearedSetup(tb, n, 1)
	e := edges[0]
	batches := [2]graph.Batch{{Insert: []graph.Edge{e}}, {Delete: []graph.Edge{e}}}
	var mo *oracle.MembershipOracle
	op = func(i int) {
		us, err := inc.UpdateCtx(nil, batches[i%2])
		if err != nil {
			tb.Fatal(err)
		}
		if us.Rederived != 0 {
			tb.Fatalf("op %d on %v re-derived: %+v", i, e, us)
		}
		mo = oracle.NewMembership(inc.Hierarchy(), benchPool, 0)
	}
	op(0)
	op(1)
	check = func() {
		if mo.Levels() != inc.Tree().Levels {
			tb.Fatalf("membership oracle has %d levels, tree %d", mo.Levels(), inc.Tree().Levels)
		}
	}
	return csr, op, check
}

// BenchmarkE23ClearedUpdate gates the cleared op of perfbench's
// update-query workload (clearedUpdates) on its own graph, PA(100k, 4).
// ApplyBatch leaves the update's graph as an overlay of the old CSR, and
// nothing in a cleared op splices it, so an op allocates O(batch) bytes
// (the overlay holds the one edge's rows or none): the run fails if
// bytes/op exceed e23ClearedSlack, so a copy of the CSR (reported as
// csr-bytes) or an O(n) rebuild of a tree segment or of a cluster map
// fails it. TestClearedUpdateAllocs holds the same gate over 500 ops on a
// smaller graph.
func BenchmarkE23ClearedUpdate(b *testing.B) {
	csr, op, check := clearedUpdates(b, 100000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	check()
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
	b.ReportMetric(bytesPerOp, "bytes/update")
	b.ReportMetric(float64(csr), "csr-bytes")
	if bytesPerOp > e23ClearedSlack {
		b.Fatalf("a cleared update allocates %.0f bytes (gate %d): a CSR copy or an O(n) per-op rebuild is back",
			bytesPerOp, e23ClearedSlack)
	}
}

// TestClearedUpdateAllocs is the tier-1 form of BenchmarkE23ClearedUpdate's
// gate, which CI runs at one iteration: 500 cleared ops in a row on
// PA(20000, 4), whose CSR (about 800 KB) is six times the slack, with
// TotalAlloc per op held under e23ClearedSlack. Its ops insert and delete
// one edge, so they cannot tell an overlay that drops restored rows from
// one that keeps them: internal/graph's TestOverlayShrinks pins the drop,
// and TestClearedStreamAllocs an overlay that only grows.
func TestClearedUpdateAllocs(t *testing.T) {
	const ops = 500
	csr, op, check := clearedUpdates(t, 20000)
	if csr <= e23ClearedSlack {
		t.Fatalf("the %d-byte CSR fits in the slack: a copy per op would pass", csr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	check()
	if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp > e23ClearedSlack {
		t.Fatalf("a cleared update allocates %d bytes (gate %d)", perOp, e23ClearedSlack)
	}
}

// TestClearedStreamAllocs measures the growth overlayShare
// (internal/graph) bounds: 2,000 distinct clearing edges inserted into
// PA(100k, 4), update-query's graph, one per op and none deleted. The
// level-0 overlay then gains each insert's two rows, every op copies the
// rows it carries, and a batch that would pass the share splices a flat
// CSR instead. An op that did not splice (allocate the CSR's bytes) must
// allocate under e23ClearedSlack, the mean with the splices must stay
// under it too, and the stream must splice at least once.
func TestClearedStreamAllocs(t *testing.T) {
	const ops = 2000
	inc, edges, csr := clearedSetup(t, 100000, ops)
	var before, after runtime.MemStats
	var total, top uint64
	splices := 0
	for i, e := range edges {
		runtime.ReadMemStats(&before)
		us, err := inc.UpdateCtx(nil, graph.Batch{Insert: []graph.Edge{e}})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if us.Rederived != 0 {
			t.Fatalf("op %d on %v re-derived: %+v", i, e, us)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		total += bytes
		switch {
		case bytes >= uint64(csr):
			splices++
		case bytes > e23ClearedSlack:
			t.Fatalf("op %d allocates %d bytes: past the %d-byte slack, short of a %d-byte splice", i, bytes, e23ClearedSlack, csr)
		default:
			top = max(top, bytes)
		}
	}
	mean := total / ops
	t.Logf("%d ops: %d bytes/op on average, at most %d without a splice; %d splices", ops, mean, top, splices)
	if mean > e23ClearedSlack {
		t.Fatalf("a cleared op allocates %d bytes on average (gate %d)", mean, e23ClearedSlack)
	}
	if splices == 0 {
		t.Fatal("no op spliced: the stream never reached the overlay bound")
	}
}

// clearingFoFEdges draws friend-of-friend edges {u, w} of g — u, a
// neighbour v of u, a neighbour w of v — until it has k distinct ones that
// are absent from g and pass d0's UnchangedUnder. Inserting any of them
// leaves d0 as it is, so none is a tree edge and deleting it again passes
// too.
func clearingFoFEdges(tb testing.TB, g *graph.Graph, d0 *core.Decomposition, k int) []graph.Edge {
	tb.Helper()
	rng := xrand.NewSplitMix64(0xf0f)
	n := g.NumVertices()
	out := make([]graph.Edge, 0, k)
	seen := make(map[graph.Edge]bool, k)
	for try := 0; try < 1000000 && len(out) < k; try++ {
		u := uint32(rng.Intn(n))
		nu := g.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		v := nu[rng.Intn(len(nu))]
		nv := g.Neighbors(v)
		w := nv[rng.Intn(len(nv))]
		if w == u || g.HasEdge(u, w) {
			continue
		}
		if e := (graph.Edge{U: min(u, w), V: max(u, w)}); !seen[e] && d0.UnchangedUnder([]graph.Edge{e}, nil) {
			seen[e] = true
			out = append(out, e)
		}
	}
	if len(out) < k {
		tb.Fatalf("only %d of %d clearing friend-of-friend edges found", len(out), k)
	}
	return out
}
