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

// e23ClearedSlack is what the E23 cleared-update gate allows per op beyond
// the new CSR: the batch's canonical and arc-edit slices, the staged
// level and stat arrays, and the pool closures — O(batch + levels) bytes.
const e23ClearedSlack = 128 << 10

// BenchmarkE23ClearedUpdate gates the cleared op of perfbench's
// update-query workload, on the same graph: PA(100k, 4), the
// preferential-attachment graph, with β = 0.2. The batch is one
// friend-of-friend edge that passes level 0's UnchangedUnder, inserted and
// deleted in turn, so no level re-derives. Each op runs
// Incremental.UpdateCtx plus oracle.NewMembership, the refresh a query
// server runs after every update. Such an op must cost one copy of the new
// CSR — 8(n+1) bytes of offsets and 8m of adjacency — and O(batch) more.
// The run fails if bytes/op exceed that by more than e23ClearedSlack, so
// an O(n) rebuild of a tree segment or of a cluster map fails it.
func BenchmarkE23ClearedUpdate(b *testing.B) {
	const n, k, seed, beta = 100000, 4, 0x5eed, 0.2
	g := graph.PreferentialAttachment(n, k, seed)
	inc, err := lowstretch.BuildIncrementalPoolCtx(nil, benchPool, g, beta, seed, 0, core.DirectionAuto)
	if err != nil {
		b.Fatal(err)
	}
	// Level 0's decomposition, derived as the hierarchy derives it.
	d0, err := core.Partition(g, beta, core.Options{Seed: xrand.Mix(seed, 0), Pool: benchPool})
	if err != nil {
		b.Fatal(err)
	}
	e := clearingFoFEdge(b, g, d0)
	batches := [2]graph.Batch{{Insert: []graph.Edge{e}}, {Delete: []graph.Edge{e}}}
	var mo *oracle.MembershipOracle
	op := func(i int) {
		us, err := inc.UpdateCtx(nil, batches[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if us.Rederived != 0 {
			b.Fatalf("op %d on %v re-derived: %+v", i, e, us)
		}
		mo = oracle.NewMembership(inc.Hierarchy(), benchPool, 0)
	}
	// One warm-up insert/delete pair: the first NewMembership composes the
	// cluster maps, once.
	op(0)
	op(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if mo.Levels() != inc.Tree().Levels {
		b.Fatalf("membership oracle has %d levels, tree %d", mo.Levels(), inc.Tree().Levels)
	}
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
	csr := 8*int64(g.NumVertices()+1) + 8*g.NumEdges()
	b.ReportMetric(bytesPerOp, "bytes/update")
	b.ReportMetric(float64(csr), "csr-bytes")
	if bytesPerOp > float64(csr+e23ClearedSlack) {
		b.Fatalf("a cleared update allocates %.0f bytes (gate: the %d-byte CSR + %d): an O(n) per-op rebuild is back",
			bytesPerOp, csr, e23ClearedSlack)
	}
}

// clearingFoFEdge draws friend-of-friend edges {u, w} of g — u, a
// neighbour v of u, a neighbour w of v — until one is absent from g and
// passes d0's UnchangedUnder. Inserting it leaves d0 as it is, so it is
// not a tree edge and deleting it again passes too.
func clearingFoFEdge(b *testing.B, g *graph.Graph, d0 *core.Decomposition) graph.Edge {
	b.Helper()
	rng := xrand.NewSplitMix64(0xf0f)
	n := g.NumVertices()
	for try := 0; try < 1000000; try++ {
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
		if e := (graph.Edge{U: min(u, w), V: max(u, w)}); d0.UnchangedUnder([]graph.Edge{e}, nil) {
			return e
		}
	}
	b.Fatal("no clearing friend-of-friend edge found")
	return graph.Edge{}
}
