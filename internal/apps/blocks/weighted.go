package blocks

// Weighted block decomposition: the same Linial–Saks iteration on a
// weighted graph, riding the hierarchy engine's weighted residual mode.
// Each level runs the weighted partition with β = 1/2 (in units of inverse
// weighted distance, so pieces have weighted radius O(log n / β)), assigns
// intra-cluster edges to the current block, and recurses on the weighted
// residual graph (graph.CutWeightedSubgraphPool keeps original weights).
// Since the weighted partition cuts an edge of weight w with probability
// O(βw), the expected weight leaving each level is a constant fraction —
// the weighted analogue of the halving argument.

import (
	"context"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// WeightedBlock is one edge class of a weighted decomposition.
type WeightedBlock struct {
	// Edges are the original-graph edges assigned to this block.
	Edges []graph.Edge
	// MaxComponentRadius bounds the WEIGHTED radius of every connected
	// component of the block subgraph, measured from the cluster centers
	// of the weighted LDD that produced the block.
	MaxComponentRadius float64
	// Clusters is the number of LDD clusters that contributed edges.
	Clusters int
}

// WeightedDecomposition is a partition of a weighted graph's edge set into
// blocks.
type WeightedDecomposition struct {
	G      *graph.WeightedGraph
	Blocks []WeightedBlock
	Beta   float64
	// Stats summarizes each decomposition level, including the weighted
	// per-level fields.
	Stats []hier.LevelStat
}

// DecomposeWeightedPoolCtx is the weighted block decomposition on pool
// (nil means parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS). β is in units of inverse
// weighted distance: pass beta/wtypical to cluster at scale wtypical.
// maxIters caps the iteration count defensively; 0 means 8 + 4·bitlen(m),
// where bitlen(m) is the bit length of m (⌊log2 m⌋ + 1, or 0 for m = 0),
// and each iteration's β shrinks geometrically once the default cap is
// half exhausted, so heavy residual edges are always eventually absorbed.
// For a fixed (wg, beta, seed) the blocks are bit-identical at every
// worker count. ctx (nil means never cancelled) is polled at
// level and Δ-stepping round boundaries; a cancelled run returns
// (nil, ctx.Err()) with no partial decomposition.
func DecomposeWeightedPoolCtx(ctx context.Context, pool *parallel.Pool, wg *graph.WeightedGraph, beta float64, seed uint64, maxIters, workers int) (*WeightedDecomposition, error) {
	if !core.ValidBeta(beta) {
		return nil, core.ErrBeta
	}
	bd := &WeightedDecomposition{G: wg, Beta: beta}
	if maxIters <= 0 {
		maxIters = 8
		for m := wg.NumEdges(); m > 0; m >>= 1 {
			maxIters += 4
		}
	}
	// A flat β can stall on weighted graphs (levels where every edge is
	// heavier than the shift scale cut everything forever). Past the
	// halfway point the schedule halves β per level, which grows the
	// cluster radius geometrically and forces the residual to drain.
	relax := maxIters / 2
	betaAt := func(level int) float64 {
		b := beta
		if level > relax {
			b = beta / float64(uint64(1)<<uint(min(level-relax, 60)))
		}
		if b < 1e-12 {
			b = 1e-12
		}
		return b
	}
	centerSeen := parallel.NewBitset(wg.NumVertices())
	h, err := hier.BuildWeightedHierarchy(hier.Config{
		Ctx:       ctx,
		WBetaAt:   betaAt,
		Seed:      seed,
		Workers:   workers,
		Pool:      pool,
		MaxLevels: maxIters,
		Residual:  true,
		NeedIntra: true,
	}, wg, func(lv *hier.Level) error {
		if len(lv.IntraEdges) == 0 {
			return nil
		}
		blk := WeightedBlock{
			Edges:              append([]graph.Edge(nil), lv.IntraEdges...),
			MaxComponentRadius: lv.WD.MaxRadius(),
			Clusters:           distinctCenters(pool, workers, lv.IntraEdges, lv.WD.Center, centerSeen),
		}
		bd.Blocks = append(bd.Blocks, blk)
		return nil
	})
	if err == hier.ErrMaxLevels {
		return nil, errUndrained(maxIters)
	}
	if err != nil {
		return nil, err
	}
	bd.Stats = h.Result().Stats
	return bd, nil
}

// NumBlocks returns the number of non-empty blocks.
func (bd *WeightedDecomposition) NumBlocks() int { return len(bd.Blocks) }

// EdgeCount returns the total edges across blocks (must equal m).
func (bd *WeightedDecomposition) EdgeCount() int64 {
	var total int64
	for _, b := range bd.Blocks {
		total += int64(len(b.Edges))
	}
	return total
}
