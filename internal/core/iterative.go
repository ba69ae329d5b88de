package core

import (
	"context"
	"math"

	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// PartitionIterativeCtx is a decomposition in the style of Blelloch,
// Gupta, Koutis, Miller, Peng and Tangwongsan (SPAA 2011) — the algorithm
// the paper streamlines. It runs O(log n) iterations; iteration k samples
// each still-unassigned vertex as a center with probability ~2^k/n, grows
// uniformly-shifted BFS regions from the new centers over unassigned
// vertices for a bounded number of rounds, and keeps whatever was claimed.
// Any stragglers in the final iteration become singleton centers.
//
// This reproduces the two separated stages the paper merges (exponentially
// densifying center samples + shifted shortest paths to resolve overlap)
// and is the "previous algorithm" arm of experiment E7. Its guarantees
// carry extra log factors exactly as the paper describes — observable as a
// larger radius/cut constant in the measurements.
//
// ctx (nil means never cancelled) is polled at every sampling iteration
// and every BFS round within it. A cancelled run returns (nil, ctx.Err())
// with no partial decomposition.
func PartitionIterativeCtx(ctx context.Context, g *graph.Graph, beta float64, seed uint64, workers int) (*Decomposition, error) {
	if beta <= 0 || beta >= 1 {
		return nil, ErrBeta
	}
	n := g.NumVertices()
	d := &Decomposition{
		G:      g,
		Beta:   beta,
		Center: make([]uint32, n),
		Dist:   make([]int32, n),
		Parent: make([]uint32, n),
	}
	if n == 0 {
		return d, nil
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
		d.Parent[i] = uint32(i)
	}
	iterations := int(math.Ceil(math.Log2(float64(n)))) + 1
	// Per-iteration radius budget: the [9]-style bound O(log n/β) split
	// across iterations, with a floor so early sparse samples make progress.
	budget := int32(math.Ceil(math.Log(float64(n)+1)/beta)) + 1
	perIter := budget/int32(iterations) + 1

	claimed := 0
	for k := 0; k < iterations && claimed < n; k++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		p := math.Exp2(float64(k)) / float64(n) * 4 // densifying sample
		if k == iterations-1 {
			p = 1.1 // final sweep: everyone unassigned becomes a center
		}
		// Sample new centers among unassigned vertices with a uniform random
		// start shift in [0, perIter) so simultaneous regions overlap little.
		type src struct {
			v     uint32
			shift int32
		}
		var srcs []src
		for v := 0; v < n; v++ {
			if level[v] != -1 {
				continue
			}
			if xrand.Uniform01(seed, uint64(k)<<40|uint64(v)) < p {
				sh := int32(xrand.Uniform01(seed^0xabcd, uint64(k)<<40|uint64(v)) * float64(perIter))
				srcs = append(srcs, src{uint32(v), sh})
			}
		}
		if len(srcs) == 0 {
			continue
		}
		// Delayed multi-source BFS over unassigned vertices, sequential
		// rounds (the baseline's cost model is not the point of E7; its
		// decomposition quality is).
		type item struct {
			v uint32
			c uint32
		}
		frontiers := make([][]item, perIter+1)
		for _, s := range srcs {
			frontiers[s.shift] = append(frontiers[s.shift], item{s.v, s.v})
		}
		for t := int32(0); t <= perIter; t++ {
			if cerr := ctxErr(ctx); cerr != nil {
				return nil, cerr
			}
			var next []item
			for _, it := range frontiers[t] {
				if level[it.v] != -1 {
					continue
				}
				level[it.v] = t
				d.Center[it.v] = it.c
				claimed++
				if it.v == it.c {
					d.Dist[it.v] = 0
					d.Parent[it.v] = it.v
				}
				for _, u := range g.Neighbors(it.v) {
					d.Relaxed++
					if level[u] == -1 {
						next = append(next, item{u, it.c})
						// Parent/dist provisionally recorded on claim below.
						_ = u
					}
				}
			}
			// Claim ordering within a round follows frontier order; record
			// parents when a vertex is first claimed.
			if t < perIter {
				// Attach parent/dist when items are consumed next round: we
				// need the proposer; rebuild next with proposers instead.
				frontiers[t+1] = append(frontiers[t+1], next...)
			}
			d.Rounds++
		}
		// Fix up Dist/Parent for vertices claimed via expansion this
		// iteration: recompute by BFS inside each new region from its
		// center (regions are connected by construction).
		fixDistances(g, d, level)
	}
	return d, nil
}

// fixDistances recomputes Dist/Parent as BFS trees from each center within
// its own piece, for all currently-claimed vertices.
func fixDistances(g *graph.Graph, d *Decomposition, level []int32) {
	n := g.NumVertices()
	seen := make([]bool, n)
	var queue []uint32
	for v := 0; v < n; v++ {
		if level[v] == -1 || d.Center[v] != uint32(v) {
			continue
		}
		c := uint32(v)
		queue = append(queue[:0], c)
		seen[c] = true
		d.Dist[c] = 0
		d.Parent[c] = c
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, u := range g.Neighbors(x) {
				if level[u] != -1 && !seen[u] && d.Center[u] == c {
					seen[u] = true
					d.Dist[u] = d.Dist[x] + 1
					d.Parent[u] = x
					queue = append(queue, u)
				}
			}
		}
	}
}
