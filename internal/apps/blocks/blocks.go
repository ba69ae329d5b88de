// Package blocks implements the Linial–Saks style block decomposition the
// paper describes in Section 2: partition the edges of a graph into
// O(log n) blocks so that every connected component within a block has
// diameter O(log n).
//
// It is obtained by iterating a (1/2, O(log n)) low-diameter decomposition:
// each iteration runs Partition with β = 1/2 on the still-unassigned edges,
// assigns all intra-cluster edges to the current block (every cluster's BFS
// tree lands in the block, so block components coincide with clusters and
// inherit their diameter bound), and passes the cut edges to the next
// iteration. Since at most half the edges are cut in expectation, the
// expected number of blocks is O(log m).
//
// The iteration is the internal/hier engine's residual mode: every level's
// Partition, intra/cut classification and residual-graph rebuild execute
// as pooled kernels on the shared parallel.Pool, and output is
// bit-identical across worker counts and traversal directions.
package blocks

import (
	"context"
	"fmt"

	"mpx/internal/bfs"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Block is one edge class of the decomposition.
type Block struct {
	// Edges are the original-graph edges assigned to this block.
	Edges []graph.Edge
	// MaxComponentRadius bounds the radius of every connected component of
	// the block subgraph (measured from the cluster centers of the LDD that
	// produced the block).
	MaxComponentRadius int32
	// Clusters is the number of LDD clusters that contributed edges.
	Clusters int
}

// Decomposition is a partition of the edge set into blocks.
type Decomposition struct {
	G      *graph.Graph
	Blocks []Block
	Beta   float64
	// Stats summarizes each decomposition level (sizes, clusters, cut).
	Stats []hier.LevelStat
}

// DecomposePoolCtx computes a block decomposition of g using β (1/2 gives
// the classical guarantee) and the given seed, on pool (nil means
// parallel.Default()) with workers logical workers (<= 0 means GOMAXPROCS)
// and traversal direction dir. maxIters caps the iteration count
// defensively; 0 means 8 + 4·bitlen(m), where bitlen(m) is the bit length
// of m (⌊log2 m⌋ + 1, or 0 for m = 0). For a fixed (g, beta, seed) the
// blocks are bit-identical at every worker count and direction. ctx (nil
// means never cancelled) is polled at level and partition-round
// boundaries; a cancelled run returns (nil, ctx.Err()) with no partial
// decomposition.
//
// It is BuildIncrementalPoolCtx with the retained hierarchy dropped.
func DecomposePoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64, maxIters, workers int, dir core.Direction) (*Decomposition, error) {
	inc, err := BuildIncrementalPoolCtx(ctx, pool, g, beta, seed, maxIters, workers, dir)
	if err != nil {
		return nil, err
	}
	return inc.Decomposition(), nil
}

// errUndrained reports a residual graph that still had edges after
// maxIters levels: β was valid, but the iteration cap ran out first.
func errUndrained(maxIters int) error {
	return fmt.Errorf("blocks: residual graph did not drain within maxIters=%d levels: %w", maxIters, hier.ErrMaxLevels)
}

// distinctCenters counts the clusters that contributed an edge to the
// current block: the number of distinct centers over the intra edges'
// endpoints. Marking is an idempotent atomic bit set, so the count is
// deterministic at any worker count.
func distinctCenters(pool *parallel.Pool, workers int, intra []graph.Edge, center []uint32, seen *parallel.Bitset) int {
	// Clear the marks on the caller's pool like every other kernel here.
	parallel.FillPool(pool, workers, seen.Words(), 0)
	return int(pool.ReduceInt64(workers, len(intra), func(i int) int64 {
		if seen.TrySetAtomic(center[intra[i].U]) {
			return 1
		}
		return 0
	}))
}

// NumBlocks returns the number of non-empty blocks.
func (bd *Decomposition) NumBlocks() int { return len(bd.Blocks) }

// EdgeCount returns the total edges across blocks (must equal m).
func (bd *Decomposition) EdgeCount() int64 {
	var total int64
	for _, b := range bd.Blocks {
		total += int64(len(b.Edges))
	}
	return total
}

// ComponentDiameters computes, per block, the exact diameter of every
// connected component of the block subgraph (all-pairs BFS within each
// component; intended for verification at test scale).
func (bd *Decomposition) ComponentDiameters() [][]int32 {
	out := make([][]int32, len(bd.Blocks))
	for i, b := range bd.Blocks {
		sub, err := graph.FromEdges(bd.G.NumVertices(), b.Edges)
		if err != nil {
			panic(err)
		}
		labels, count := graph.ConnectedComponents(sub)
		// Skip singleton components (isolated vertices of the block).
		memberOf := make([][]uint32, count)
		for v, l := range labels {
			memberOf[l] = append(memberOf[l], uint32(v))
		}
		var diams []int32
		for _, members := range memberOf {
			if len(members) < 2 {
				continue
			}
			var diam int32
			for _, s := range members {
				dist := bfs.Sequential(sub, s)
				for _, v := range members {
					if dist[v] > diam {
						diam = dist[v]
					}
				}
			}
			diams = append(diams, diam)
		}
		out[i] = diams
	}
	return out
}
