// Package connectivity implements work-efficient parallel connected
// components by repeated low-diameter decomposition and contraction — the
// algorithm of Shun, Dhulipala and Blelloch (2014), which uses exactly the
// paper's Partition as its inner routine.
//
// Each round decomposes the current graph with a constant β, contracts
// every piece to a super-vertex, and recurses on the quotient graph (only
// the O(βm) cut edges survive contraction, so the edge count decays
// geometrically and the total work is O(m) in expectation with O(polylog)
// rounds). Labels are propagated back down through the contraction maps.
package connectivity

import (
	"context"
	"errors"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Result carries component labels and the round structure of the run.
type Result struct {
	// Label[v] is the component id of v (the smallest original vertex in
	// the component, so labels are canonical).
	Label []uint32
	// Components is the number of connected components.
	Components int
	// Rounds is the number of decompose-and-contract rounds executed.
	Rounds int
	// EdgesPerRound records the surviving edge count entering each round
	// (the geometric decay that makes the algorithm work-efficient).
	EdgesPerRound []int64
	// Stats summarizes each contraction level (sizes, clusters, cut).
	Stats []hier.LevelStat
}

// ComponentsPoolCtx computes connected components via LDD contraction
// with the given β per round (beta in (0,1); 0.4 is the conventional
// constant). The decompose-and-contract rounds run on the internal/hier
// engine, so every Partition, the parallel graph.ContractClustersPool
// contraction, and the original→quotient vertex relabeling execute on pool
// (nil means parallel.Default()) with reused scratch. workers <= 0 means
// GOMAXPROCS. ctx (nil means never cancelled) is polled at
// contraction-round and partition-round boundaries; a cancelled run
// returns (nil, ctx.Err()) with no partial labeling.
func ComponentsPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64, workers int, dir core.Direction) (*Result, error) {
	if !core.ValidBeta(beta) {
		return nil, core.ErrBeta
	}
	n := g.NumVertices()
	res := &Result{Label: make([]uint32, n)}
	if n == 0 {
		return res, nil
	}
	// cur[v] is original vertex v's super-vertex in the current level's
	// graph: each visit folds that level's quotient map into it, so after
	// the last level it names v's vertex in the final graph.
	cur := make([]uint32, n)
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			cur[v] = uint32(v)
		}
	})
	h, err := hier.BuildHierarchy(hier.Config{
		Ctx:       ctx,
		Beta:      beta,
		Seed:      seed,
		Workers:   workers,
		Pool:      pool,
		Direction: dir,
	}, g, func(lv *hier.Level) error {
		quot := lv.Quot
		pool.ForRange(workers, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				cur[v] = quot[cur[v]]
			}
		})
		return nil
	})
	if err == hier.ErrMaxLevels {
		return nil, errors.New("connectivity: contraction failed to converge")
	}
	if err != nil {
		return nil, err
	}
	hres := h.Result()
	res.Rounds = hres.Levels
	res.Stats = hres.Stats
	for _, st := range hres.Stats {
		res.EdgesPerRound = append(res.EdgesPerRound, st.M)
	}
	// Canonicalize: label = smallest original vertex per final super-vertex.
	// Every final super-vertex is one component, so the relabel table is a
	// plain slice keyed by quotient id — no map churn on the hot exit path.
	nq := hres.Final.NumVertices()
	smallest := make([]uint32, nq)
	for v := n - 1; v >= 0; v-- {
		smallest[cur[v]] = uint32(v)
	}
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			res.Label[v] = smallest[cur[v]]
		}
	})
	res.Components = nq
	return res, nil
}
