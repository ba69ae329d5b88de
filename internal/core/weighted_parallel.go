package core

import (
	"math"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// PartitionWeightedParallel is the parallel counterpart of
// PartitionWeighted, exploring the direction the paper's Section 6 leaves
// open ("the depth of the algorithm is harder to control since hop count is
// no longer closely related to diameter"). It runs the exponentially
// shifted shortest paths as a multi-source Δ-stepping (Meyer–Sanders) from
// an implicit super-source with arc lengths δ_max − δ_u.
//
// Each bucket-relaxation round relaxes the frontier from its distances as
// of the start of the round, so the shifted distances, the frontiers and
// the round count are the same at every worker count; parents are resolved
// from the distances by a deterministic minimum over packed (distance
// bits, proposer) keys, so Center, Dist, Parent and Rounds are
// bit-identical across worker counts (docs/determinism.md).
// Options.Direction and Options.TieBreak do not apply to this engine.
//
// The decomposition quality matches PartitionWeighted exactly up to
// floating-point tie events (the assignment minimizes the same shifted
// distances); the Rounds counter exposes the empirical parallel depth that
// Section 6 asks about — experiment E15 sweeps it against Δ and the weight
// distribution.
// Robustness: like Partition, Options.Ctx is polled between
// bucket-relaxation rounds (a cancelled call returns (nil, ctx.Err()) with
// no partial result) and panics escaping the round kernels are recovered
// into a *parallel.PanicError return.
func PartitionWeightedParallel(wg *graph.WeightedGraph, beta float64, delta float64, opts Options) (d *WeightedDecomposition, err error) {
	if !ValidBeta(beta) {
		return nil, ErrBeta
	}
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, parallel.Recovered(r)
		}
	}()
	n := wg.NumVertices()
	d = &WeightedDecomposition{
		G:      wg,
		Beta:   beta,
		Center: make([]uint32, n),
		Dist:   make([]float64, n),
		Parent: make([]uint32, n),
	}
	if n == 0 {
		return d, nil
	}
	pool := opts.Pool
	d.Shifts = GenerateShifts(n, beta, opts)
	d.DeltaMax, _ = pool.MaxFloat64(opts.Workers, n, func(i int) float64 { return d.Shifts[i] })

	init := make([]float64, n)
	pool.For(opts.Workers, n, func(v int) {
		init[v] = d.DeltaMax - d.Shifts[v]
	})
	// The bucket-relaxation rounds run on the same persistent pool; Ctx
	// cancels between rounds. They leave the shifted distances in d.Dist
	// and the shortest-path forest in d.Parent.
	d.Rounds, err = deltaStep(opts.Ctx, pool, wg, init, delta, opts.Workers, d.Dist, d.Parent)
	if err != nil {
		return nil, err
	}

	// Every vertex is reached (its own start value is finite). Recover
	// centers by chasing parents to the forest roots; path lengths are
	// bounded by the piece radius and the chases are independent, so the
	// pass is cheap and parallel.
	pool.For(opts.Workers, n, func(v int) {
		d.Center[v] = chaseRoot(d.Parent, uint32(v))
	})
	// Tree distances from the center: shifted distance minus the center's
	// start offset, converted in place.
	pool.For(opts.Workers, n, func(v int) {
		d.Dist[v] -= init[d.Center[v]]
		if d.Dist[v] < 0 {
			d.Dist[v] = 0 // guard fp wobble on the centers themselves
		}
	})
	return d, nil
}

// chaseRoot follows parent pointers to the forest root.
func chaseRoot(parent []uint32, v uint32) uint32 {
	steps := 0
	for parent[v] != v {
		v = parent[v]
		steps++
		if steps > len(parent) {
			panic("core: parent pointers contain a cycle")
		}
	}
	return v
}

// DefaultDelta is the Δ PartitionWeightedParallel uses when delta <= 0 is
// passed: the common Meyer–Sanders heuristic Δ = max weight / average
// degree, clamped to at least the minimum edge weight (1 for edgeless
// graphs). Rounds depend on Δ, so it is exported for experiments to
// report the Δ actually used.
func DefaultDelta(wg *graph.WeightedGraph) float64 {
	n := wg.NumVertices()
	if n == 0 {
		return 1
	}
	minW, maxW := math.Inf(1), 0.0
	var arcs int64
	for v := 0; v < n; v++ {
		_, ws := wg.Neighbors(uint32(v))
		for _, w := range ws {
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
			arcs++
		}
	}
	if arcs == 0 {
		return 1
	}
	avgDeg := float64(arcs) / float64(n)
	delta := maxW / math.Max(avgDeg, 1)
	if delta < minW {
		delta = minW
	}
	return delta
}
