// Chaos suite: drives deterministic faults (panics, cancellations, delays)
// into the pool/engine stack at every injection point the harness can
// reach, and asserts the robustness contract of docs/robustness.md under
// -race at workers 1, 2 and 8: no deadlock, errors surface typed, the pool
// stays reusable, failed updates leave the hierarchy bit-identical, and a
// clean retry after any injected fault reproduces the golden fingerprints
// bit for bit.
package faultpool_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
	"mpx/internal/parallel/faultpool"
)

var chaosWorkers = []int{1, 2, 8}

// hashU32s / hashI64s / hashF64s feed arrays into a fingerprint.
func hashU32s(h hash.Hash64, xs []uint32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
}

func hashI64s(h hash.Hash64, xs []int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashF64s(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashI32s(h hash.Hash64, xs []int32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}

func hashGraph(h hash.Hash64, g *graph.Graph) {
	if g == nil {
		h.Write([]byte{0})
		return
	}
	hashI64s(h, g.Offsets())
	hashU32s(h, g.Adjacency())
}

// fpDecomp fingerprints every determinism-gated field of an unweighted
// decomposition.
func fpDecomp(d *core.Decomposition) uint64 {
	h := fnv.New64a()
	hashU32s(h, d.Center)
	hashI32s(h, d.Dist)
	hashU32s(h, d.Parent)
	fmt.Fprintf(h, "rounds=%d", d.Rounds)
	return h.Sum64()
}

func fpWeightedDecomp(d *core.WeightedDecomposition) uint64 {
	h := fnv.New64a()
	hashU32s(h, d.Center)
	hashF64s(h, d.Dist)
	hashU32s(h, d.Parent)
	fmt.Fprintf(h, "rounds=%d", d.Rounds)
	return h.Sum64()
}

// quotFold retains each visited level's quotient map, as an app keeps its
// per-level state, so fpHier can fold them into the vertex map.
type quotFold [][]uint32

func (q *quotFold) visit(lv *hier.Level) error {
	for len(*q) <= lv.Index {
		*q = append(*q, nil)
	}
	(*q)[lv.Index] = lv.Quot
	return nil
}

// fpHier fingerprints a hierarchy's observable state: level count,
// per-level stats, the base graph, the final graph, and the vertex map
// (original vertex -> final vertex) folded from the quotient maps its
// visits delivered to q.
func fpHier(hr *hier.Hierarchy, q quotFold) uint64 {
	h := fnv.New64a()
	res := hr.Result()
	fmt.Fprintf(h, "levels=%d;", res.Levels)
	for _, st := range res.Stats {
		fmt.Fprintf(h, "%+v;", st)
	}
	hashGraph(h, hr.Graph())
	hashGraph(h, res.Final)
	origMap := make([]uint32, hr.Graph().NumVertices())
	for v := range origMap {
		origMap[v] = uint32(v)
	}
	for _, quot := range q[:res.Levels] {
		for v, x := range origMap {
			origMap[v] = quot[x]
		}
	}
	hashU32s(h, origMap)
	return h.Sum64()
}

func chaosGraph() *graph.Graph { return graph.GNM(240, 720, 0xC0FFEE) }

func partitionOpts(pool *parallel.Pool, workers int, ctx context.Context) core.Options {
	return core.Options{Ctx: ctx, Seed: 42, Workers: workers, Pool: pool}
}

// mustPartition runs a clean partition and fails the test on error.
func mustPartition(t *testing.T, g *graph.Graph, pool *parallel.Pool, workers int) *core.Decomposition {
	t.Helper()
	d, err := core.Partition(g, 0.25, partitionOpts(pool, workers, nil))
	if err != nil {
		t.Fatalf("clean Partition: %v", err)
	}
	return d
}

// TestPartitionCancelAtEveryRound cancels an unweighted partition at every
// round boundary in turn: each cancelled call must return (nil,
// context.Canceled), and a clean retry on the same pool must reproduce the
// golden fingerprint bit for bit.
func TestPartitionCancelAtEveryRound(t *testing.T) {
	g := chaosGraph()
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			golden := fpDecomp(mustPartition(t, g, pool, w))

			// Probe the boundary count: a never-tripping CheckCtx counts
			// the polls a full run performs.
			probe := faultpool.CancelAtCheck(1 << 40)
			if _, err := core.Partition(g, 0.25, partitionOpts(pool, w, probe)); err != nil {
				t.Fatalf("probe run: %v", err)
			}
			polls := probe.Polls()
			if polls < 2 {
				t.Fatalf("expected multiple boundary polls, got %d", polls)
			}

			for n := 1; n <= polls; n++ {
				ctx := faultpool.CancelAtCheck(n)
				d, err := core.Partition(g, 0.25, partitionOpts(pool, w, ctx))
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
				}
				if d != nil {
					t.Fatalf("cancel at poll %d: got partial decomposition", n)
				}
			}

			if fp := fpDecomp(mustPartition(t, g, pool, w)); fp != golden {
				t.Fatalf("retry after %d cancellations: fingerprint %#x != golden %#x", polls, fp, golden)
			}
		})
	}
}

// TestPartitionPanicAtBoundary injects a panic through the context's Err()
// at a round boundary — a poisoned request object — and requires it to be
// contained into a *parallel.PanicError with the pool left reusable.
func TestPartitionPanicAtBoundary(t *testing.T) {
	g := chaosGraph()
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			golden := fpDecomp(mustPartition(t, g, pool, w))

			for _, n := range []int{1, 2, 3} {
				ctx := faultpool.PanicAtCheck(n)
				d, err := core.Partition(g, 0.25, partitionOpts(pool, w, ctx))
				var pe *parallel.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("panic at poll %d: err = %v, want *parallel.PanicError", n, err)
				}
				if !errors.Is(err, faultpool.ErrInjected) {
					t.Fatalf("panic at poll %d: error does not unwrap to ErrInjected: %v", n, err)
				}
				if d != nil {
					t.Fatalf("panic at poll %d: got partial decomposition", n)
				}
			}

			if fp := fpDecomp(mustPartition(t, g, pool, w)); fp != golden {
				t.Fatalf("retry after boundary panics: fingerprint mismatch")
			}
		})
	}
}

// TestWeightedPartitionCancelAtEveryRound is the weighted analogue:
// Δ-stepping bucket rounds are the boundaries.
func TestWeightedPartitionCancelAtEveryRound(t *testing.T) {
	g := chaosGraph()
	wg := graph.RandomWeights(g, 0.1, 1.0, 7)
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()

			run := func(ctx context.Context) (*core.WeightedDecomposition, error) {
				return core.PartitionWeightedParallel(wg, 0.25, 0.5, partitionOpts(pool, w, ctx))
			}
			d0, err := run(nil)
			if err != nil {
				t.Fatalf("clean weighted partition: %v", err)
			}
			golden := fpWeightedDecomp(d0)

			probe := faultpool.CancelAtCheck(1 << 40)
			if _, err := run(probe); err != nil {
				t.Fatalf("probe run: %v", err)
			}
			polls := probe.Polls()
			if polls < 2 {
				t.Fatalf("expected multiple boundary polls, got %d", polls)
			}

			step := 1
			if polls > 40 {
				step = polls / 40
			}
			for n := 1; n <= polls; n += step {
				ctx := faultpool.CancelAtCheck(n)
				d, err := run(ctx)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
				}
				if d != nil {
					t.Fatalf("cancel at poll %d: got partial decomposition", n)
				}
			}

			d1, err := run(nil)
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if fp := fpWeightedDecomp(d1); fp != golden {
				t.Fatalf("retry after cancellations: fingerprint %#x != golden %#x", fp, golden)
			}
		})
	}
}

// TestPoolPanicInjectionRetry panics at sampled pool submissions — both on
// the submitting goroutine (Submit hook) and inside a job slot (Slot hook)
// — during a partition. The engine boundary must surface a typed error,
// and after Clear a retry on the same pool must be bit-identical.
func TestPoolPanicInjectionRetry(t *testing.T) {
	g := chaosGraph()
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			base := pool.SubmitCount()
			faultpool.Observe(pool) // submissions are numbered only under a hook
			golden := fpDecomp(mustPartition(t, g, pool, w))
			faultpool.Clear(pool)
			total := pool.SubmitCount() - base
			if total < 1 {
				t.Fatalf("partition made no pool submissions")
			}

			samples := []int64{1, total / 2, total}
			for _, n := range samples {
				if n < 1 {
					continue
				}
				for _, mode := range []string{"submit", "slot"} {
					if mode == "submit" {
						faultpool.PanicAtSubmission(pool, n)
					} else {
						faultpool.PanicAtSlot(pool, n, 0)
					}
					d, err := core.Partition(g, 0.25, partitionOpts(pool, w, nil))
					faultpool.Clear(pool)
					var pe *parallel.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("%s fault at submission %d: err = %v, want *parallel.PanicError", mode, n, err)
					}
					if !errors.Is(err, faultpool.ErrInjected) {
						t.Fatalf("%s fault at submission %d: error does not unwrap to ErrInjected: %v", mode, n, err)
					}
					if d != nil {
						t.Fatalf("%s fault at submission %d: got partial decomposition", mode, n)
					}
					if fp := fpDecomp(mustPartition(t, g, pool, w)); fp != golden {
						t.Fatalf("%s fault at submission %d: retry fingerprint mismatch", mode, n)
					}
				}
			}
		})
	}
}

// TestDelayInjectionDeterminism perturbs the schedule (a sleep inside
// every slot of a sampled submission) and requires bit-identical output —
// the determinism contract holds under arbitrary slot interleavings.
func TestDelayInjectionDeterminism(t *testing.T) {
	g := chaosGraph()
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			base := pool.SubmitCount()
			faultpool.Observe(pool)
			golden := fpDecomp(mustPartition(t, g, pool, w))
			faultpool.Clear(pool)
			total := pool.SubmitCount() - base

			for _, n := range []int64{1, total / 2, total} {
				if n < 1 {
					continue
				}
				faultpool.DelayAtSubmission(pool, n, 2*time.Millisecond)
				d, err := core.Partition(g, 0.25, partitionOpts(pool, w, nil))
				faultpool.Clear(pool)
				if err != nil {
					t.Fatalf("delay at submission %d: %v", n, err)
				}
				if fp := fpDecomp(d); fp != golden {
					t.Fatalf("delay at submission %d: fingerprint %#x != golden %#x", n, fp, golden)
				}
			}
		})
	}
}

func hierConfig(pool *parallel.Pool, workers int, ctx context.Context) hier.Config {
	return hier.Config{
		Ctx:          ctx,
		Beta:         0.3,
		Seed:         11,
		Workers:      workers,
		Pool:         pool,
		NeedEdgeOrig: true,
	}
}

// TestHierarchyBuildCancel cancels a hierarchy build at every boundary
// poll (level boundaries plus the partition rounds inside each level):
// every cancelled build returns (nil, context.Canceled), and a clean build
// afterwards matches the golden fingerprint.
func TestHierarchyBuildCancel(t *testing.T) {
	g := chaosGraph()
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()

			var q0 quotFold
			h0, err := hier.BuildHierarchy(hierConfig(pool, w, nil), g, q0.visit)
			if err != nil {
				t.Fatalf("clean build: %v", err)
			}
			golden := fpHier(h0, q0)

			probe := faultpool.CancelAtCheck(1 << 40)
			if _, err := hier.BuildHierarchy(hierConfig(pool, w, probe), g, nil); err != nil {
				t.Fatalf("probe build: %v", err)
			}
			polls := probe.Polls()
			if polls < 2 {
				t.Fatalf("expected multiple boundary polls, got %d", polls)
			}

			step := 1
			if polls > 40 {
				step = polls / 40
			}
			for n := 1; n <= polls; n += step {
				ctx := faultpool.CancelAtCheck(n)
				h, err := hier.BuildHierarchy(hierConfig(pool, w, ctx), g, nil)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
				}
				if h != nil {
					t.Fatalf("cancel at poll %d: got partial hierarchy", n)
				}
			}

			var q1 quotFold
			h1, err := hier.BuildHierarchy(hierConfig(pool, w, nil), g, q1.visit)
			if err != nil {
				t.Fatalf("retry build: %v", err)
			}
			if fp := fpHier(h1, q1); fp != golden {
				t.Fatalf("retry after cancellations: fingerprint %#x != golden %#x", fp, golden)
			}
		})
	}
}

// chaosBatch is the update the hierarchy fault tests apply: a handful of
// inserts that cross existing cluster structure plus one deletion of a
// known-present edge, forcing a multi-level re-derivation.
func chaosBatch(g *graph.Graph) graph.Batch {
	// Delete the first edge of the adjacency; insert edges between far
	// apart vertex ids (GNM(240, ...) almost surely lacks them; duplicates
	// are dropped by ApplyBatch as no-ops, which is fine — the batch stays
	// non-empty because of the deletion).
	adj := g.Adjacency()
	offs := g.Offsets()
	var del graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		if offs[v+1] > offs[v] {
			del = graph.Edge{U: uint32(v), V: adj[offs[v]]}
			break
		}
	}
	return graph.Batch{
		Insert: []graph.Edge{{U: 1, V: 238}, {U: 3, V: 235}, {U: 5, V: 231}},
		Delete: []graph.Edge{del},
	}
}

// TestHierarchyUpdateCancelUntouched cancels Hierarchy.UpdateCtx at every
// boundary poll in turn and asserts the all-or-nothing contract: zero
// UpdateStats, context.Canceled, and the live hierarchy bit-identical to
// its pre-update fingerprint. A clean retry must then succeed and match a
// from-scratch build on the updated graph bit for bit.
func TestHierarchyUpdateCancelUntouched(t *testing.T) {
	g := chaosGraph()
	b := chaosBatch(g)
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()

			var q quotFold
			h, err := hier.BuildHierarchy(hierConfig(pool, w, nil), g, q.visit)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			before := fpHier(h, q)

			// Probe the boundary count of this exact update on a scratch
			// copy of the hierarchy.
			probeH, err := hier.BuildHierarchy(hierConfig(pool, w, nil), g, nil)
			if err != nil {
				t.Fatalf("probe build: %v", err)
			}
			probe := faultpool.CancelAtCheck(1 << 40)
			if _, err := probeH.UpdateCtx(probe, b, nil); err != nil {
				t.Fatalf("probe update: %v", err)
			}
			polls := probe.Polls()
			if polls < 2 {
				t.Fatalf("expected multiple boundary polls, got %d", polls)
			}

			step := 1
			if polls > 40 {
				step = polls / 40
			}
			for n := 1; n <= polls; n += step {
				ctx := faultpool.CancelAtCheck(n)
				us, err := h.UpdateCtx(ctx, b, q.visit)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
				}
				if us != (hier.UpdateStats{}) {
					t.Fatalf("cancel at poll %d: non-zero UpdateStats %+v", n, us)
				}
				if fp := fpHier(h, q); fp != before {
					t.Fatalf("cancel at poll %d: hierarchy mutated (%#x != %#x)", n, fp, before)
				}
			}

			// Clean retry commits; it must equal a from-scratch build on the
			// updated graph.
			if _, err := h.UpdateCtx(nil, b, q.visit); err != nil {
				t.Fatalf("retry update: %v", err)
			}
			newG, _, err := graph.ApplyBatch(g, b)
			if err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
			var qf quotFold
			fresh, err := hier.BuildHierarchy(hierConfig(pool, w, nil), newG, qf.visit)
			if err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			if got, want := fpHier(h, q), fpHier(fresh, qf); got != want {
				t.Fatalf("post-retry hierarchy %#x != from-scratch build %#x", got, want)
			}
		})
	}
}

// TestHierarchyUpdatePanicUntouched drives panics into an update both
// through the context (boundary poll) and through the pool (slot fault)
// and asserts the same untouched-on-failure contract, including that the
// pool and the hierarchy absorb a clean retry afterwards.
func TestHierarchyUpdatePanicUntouched(t *testing.T) {
	g := chaosGraph()
	b := chaosBatch(g)
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()

			var q quotFold
			h, err := hier.BuildHierarchy(hierConfig(pool, w, nil), g, q.visit)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			before := fpHier(h, q)

			// Context-poll panic at a level boundary.
			us, err := h.UpdateCtx(faultpool.PanicAtCheck(2), b, q.visit)
			var pe *parallel.PanicError
			if !errors.As(err, &pe) || !errors.Is(err, faultpool.ErrInjected) {
				t.Fatalf("boundary panic: err = %v, want injected *parallel.PanicError", err)
			}
			if us != (hier.UpdateStats{}) {
				t.Fatalf("boundary panic: non-zero UpdateStats %+v", us)
			}
			if fp := fpHier(h, q); fp != before {
				t.Fatalf("boundary panic: hierarchy mutated")
			}

			// Pool slot panic inside one of the update's kernels.
			faultpool.PanicAtSlot(pool, 2, 0)
			us, err = h.UpdateCtx(nil, b, q.visit)
			faultpool.Clear(pool)
			if !errors.As(err, &pe) || !errors.Is(err, faultpool.ErrInjected) {
				t.Fatalf("slot panic: err = %v, want injected *parallel.PanicError", err)
			}
			if us != (hier.UpdateStats{}) {
				t.Fatalf("slot panic: non-zero UpdateStats %+v", us)
			}
			if fp := fpHier(h, q); fp != before {
				t.Fatalf("slot panic: hierarchy mutated")
			}

			// Clean retry on the same pool and hierarchy.
			if _, err := h.UpdateCtx(nil, b, q.visit); err != nil {
				t.Fatalf("retry update: %v", err)
			}
			newG, _, err := graph.ApplyBatch(g, b)
			if err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
			var qf quotFold
			fresh, err := hier.BuildHierarchy(hierConfig(pool, w, nil), newG, qf.visit)
			if err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			if got, want := fpHier(h, q), fpHier(fresh, qf); got != want {
				t.Fatalf("post-retry hierarchy %#x != from-scratch build %#x", got, want)
			}
		})
	}
}

// TestWeightedHierarchyCancel cancels a weighted hierarchy build and
// update; the weighted path re-derives from scratch, so the untouched
// contract is the whole guarantee.
func TestWeightedHierarchyCancel(t *testing.T) {
	g := chaosGraph()
	wgr := graph.RandomWeights(g, 0.1, 1.0, 7)
	for _, w := range chaosWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pool := parallel.NewPool(w)
			defer pool.Close()

			cfg := hierConfig(pool, w, nil)
			cfg.NeedEdgeOrig = false // weighted annotations follow the same path; keep the workload lean
			// Weighted β is in units of inverse weighted distance; a flat β
			// does not converge — use the AKPW halving schedule.
			cfg.WBetaAt = func(l int) float64 { return 0.3 / float64(uint64(1)<<uint(l)) }
			var q quotFold
			h, err := hier.BuildWeightedHierarchy(cfg, wgr, q.visit)
			if err != nil {
				t.Fatalf("weighted build: %v", err)
			}
			before := fpHier(h, q)

			// Cancelled build returns nothing.
			ccfg := cfg
			ccfg.Ctx = faultpool.CancelAtCheck(2)
			if hc, err := hier.BuildWeightedHierarchy(ccfg, wgr, nil); !errors.Is(err, context.Canceled) || hc != nil {
				t.Fatalf("cancelled weighted build: h=%v err=%v", hc, err)
			}

			// Cancelled update leaves the hierarchy untouched.
			b := graph.Batch{Insert: []graph.Edge{{U: 1, V: 238}}, InsertW: []float64{0.5}}
			us, err := h.UpdateCtx(faultpool.CancelAtCheck(2), b, q.visit)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled weighted update: err = %v", err)
			}
			if us != (hier.UpdateStats{}) {
				t.Fatalf("cancelled weighted update: non-zero UpdateStats %+v", us)
			}
			if fp := fpHier(h, q); fp != before {
				t.Fatalf("cancelled weighted update: hierarchy mutated")
			}

			// Clean retry succeeds.
			if _, err := h.UpdateCtx(nil, b, nil); err != nil {
				t.Fatalf("weighted retry: %v", err)
			}
		})
	}
}
