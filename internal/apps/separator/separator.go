// Package separator computes balanced vertex separators from low-diameter
// decompositions — the application the paper's Section 2 cites for
// unweighted decompositions ("efficiently computing separators in
// minor-free graphs [23, 28]; our algorithm can be directly substituted
// into these algorithms").
//
// The scheme: decompose with a diameter target tied to the balance
// requirement, merge pieces greedily into two sides of roughly equal size,
// and take one endpoint of every edge crossing between the sides as the
// separator. On planar-like inputs (grids, road networks) the decomposition
// cuts O(βm) edges, giving separators of size O(√n · polylog) when β is
// chosen near 1/√n — within a polylog of the optimal planar √n bound, the
// gap the shallow-minor machinery of [23] closes.
//
// Decomposition and piece bookkeeping run as pooled kernels on the shared
// parallel.Pool: piece sizes accumulate into a slice indexed by center,
// piece ordering is a pool radix sort on packed (size, center) keys, and
// one scratch set is reused across every β retry of the auto-tuning loop.
// Output ordering is pinned: Separator, SideA and SideB are each sorted by
// ascending vertex id, and for a fixed (g, beta, seed) the result is
// bit-identical at every worker count and traversal direction.
package separator

import (
	"context"
	"errors"
	"sync/atomic"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/parallel"
)

// Result is a balanced vertex separator.
type Result struct {
	// Separator vertices; removing them disconnects SideA from SideB.
	// Sorted by ascending vertex id, as are SideA and SideB.
	Separator []uint32
	// SideA and SideB are the two balanced vertex sets (excluding the
	// separator).
	SideA, SideB []uint32
	// Balance is max(|A|,|B|) / (|A|+|B|); <= maxImbalance by construction.
	Balance float64
	// Beta is the decomposition parameter used.
	Beta float64
	// Pieces is the number of decomposition pieces merged.
	Pieces int
	// Stats summarizes the winning decomposition (one level).
	Stats []hier.LevelStat
}

// findScratch owns the buffers splitPieces reuses across the β retries of
// one FindPoolCtx call: the auto-tuning loop used to rebuild (and
// stdlib-sort) a fresh piece table per retry.
type findScratch struct {
	counts  []int64  // per center: piece size
	centers []uint32 // cluster centers, ascending
	keys    []uint64 // packed (n-size, center) piece ordering keys
	keyTmp  []uint64 // radix ping-pong
	side    []int8   // per center: assigned side (0 or 1)
	inSep   []bool   // per vertex: separator membership
}

// FindPoolCtx computes a balanced separator: no side exceeds maxImbalance
// (in (0.5, 1), e.g. 2/3) of the non-separator vertices. beta controls the
// decomposition granularity; pass 0 to auto-tune (doubling until pieces
// are small enough to balance). It runs on pool (nil means
// parallel.Default()) with workers logical workers (<= 0 means
// GOMAXPROCS) and traversal direction dir. ctx (nil means never
// cancelled) is polled at partition-round boundaries and between β
// retries of the auto-tuning loop; a cancelled run returns
// (nil, ctx.Err()) with no partial separator.
func FindPoolCtx(ctx context.Context, pool *parallel.Pool, g *graph.Graph, beta, maxImbalance float64, seed uint64, workers int, dir core.Direction) (*Result, error) {
	if maxImbalance <= 0.5 || maxImbalance >= 1 {
		return nil, errors.New("separator: maxImbalance must lie in (0.5, 1)")
	}
	n := g.NumVertices()
	if n == 0 {
		return &Result{Beta: beta}, nil
	}
	betas := []float64{beta}
	if beta <= 0 {
		betas = nil
		for b := 0.01; b < 1; b *= 2 {
			betas = append(betas, b)
		}
	}
	sc := &findScratch{}
	var lastErr error
	for _, b := range betas {
		d, err := core.Partition(g, b, core.Options{
			Ctx:       ctx,
			Seed:      seed,
			Workers:   workers,
			Pool:      pool,
			Direction: dir,
		})
		if err != nil {
			return nil, err
		}
		res, err := splitPieces(pool, workers, g, d, maxImbalance, sc)
		if err != nil {
			lastErr = err
			continue // pieces too large at this beta; try finer
		}
		res.Beta = b
		cut := graph.CutEdgesPool(pool, workers, g, d.Center)
		st := hier.LevelStat{
			Level: 0, N: n, M: g.NumEdges(),
			Clusters: res.Pieces, CutEdges: cut, QuotientN: res.Pieces,
		}
		if st.M > 0 {
			st.CutFraction = float64(cut) / float64(st.M)
		}
		res.Stats = []hier.LevelStat{st}
		return res, nil
	}
	if lastErr == nil {
		lastErr = errors.New("separator: no beta produced balanceable pieces")
	}
	return nil, lastErr
}

// splitPieces greedily assigns decomposition pieces (largest first) to the
// lighter of two sides, then extracts the separator from the crossing
// edges. Piece sizes, the (size desc, center asc) piece order, and the
// crossing scan are pooled kernels over reused scratch.
func splitPieces(pool *parallel.Pool, workers int, g *graph.Graph, d *core.Decomposition, maxImbalance float64, sc *findScratch) (*Result, error) {
	n := g.NumVertices()
	center := d.Center
	sc.counts = parallel.Grow(sc.counts, n)
	counts := sc.counts
	parallel.FillPool(pool, workers, counts, 0)
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			atomic.AddInt64(&counts[center[v]], 1)
		}
	})
	sc.centers = pool.PackInto(workers, n, func(v int) bool {
		return center[v] == uint32(v)
	}, sc.centers)
	centers := sc.centers
	k := len(centers)
	// Largest-first greedy order, ties by center id: ascending packed
	// (n-size, center) keys sort exactly like the old stdlib
	// (size desc, center asc) comparator, with the size recoverable from
	// the key — no per-retry piece structs.
	sc.keys = parallel.Grow(sc.keys, k)
	keys := sc.keys
	pool.ForRange(workers, k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := centers[i]
			keys[i] = uint64(int64(n)-counts[c])<<32 | uint64(c)
		}
	})
	sc.keyTmp = parallel.Grow(sc.keyTmp, k)
	pool.SortUint64(workers, keys, sc.keyTmp)
	if float64(n-int(keys[0]>>32)) > maxImbalance*float64(n) {
		return nil, errors.New("separator: a single piece exceeds the balance bound")
	}
	sc.side = parallel.Grow(sc.side, n)
	side := sc.side // indexed by center; every center is assigned below
	sizeA, sizeB := 0, 0
	for _, key := range keys {
		c := uint32(key)
		s := n - int(key>>32)
		if sizeA <= sizeB {
			side[c] = 0
			sizeA += s
		} else {
			side[c] = 1
			sizeB += s
		}
	}
	// Separator: for each crossing edge, take the side-A endpoint (any
	// vertex cover of the crossing edges works; one-sided selection keeps
	// it simple and deterministic). Each vertex writes only its own slot,
	// so the scan is race-free.
	sc.inSep = parallel.Grow(sc.inSep, n)
	inSep := sc.inSep
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			in := false
			if side[center[v]] == 0 {
				for _, u := range g.Neighbors(uint32(v)) {
					if side[center[u]] == 1 {
						in = true
						break
					}
				}
			}
			inSep[v] = in
		}
	})
	res := &Result{Pieces: k}
	remA, remB := 0, 0
	for v := 0; v < n; v++ {
		switch {
		case inSep[v]:
			res.Separator = append(res.Separator, uint32(v))
		case side[center[v]] == 0:
			res.SideA = append(res.SideA, uint32(v))
			remA++
		default:
			res.SideB = append(res.SideB, uint32(v))
			remB++
		}
	}
	total := remA + remB
	if total > 0 {
		bigger := remA
		if remB > bigger {
			bigger = remB
		}
		res.Balance = float64(bigger) / float64(total)
	}
	if res.Balance > maxImbalance {
		return nil, errors.New("separator: greedy split exceeded the balance bound")
	}
	return res, nil
}

// Verify checks that removing the separator disconnects SideA from SideB:
// no edge joins a SideA vertex to a SideB vertex.
func Verify(g *graph.Graph, r *Result) error {
	side := make([]int8, g.NumVertices())
	for _, v := range r.SideA {
		side[v] = 1
	}
	for _, v := range r.SideB {
		side[v] = 2
	}
	for _, v := range r.Separator {
		side[v] = 3
	}
	for v := 0; v < g.NumVertices(); v++ {
		if side[v] == 0 {
			return errors.New("separator: vertex not assigned to any part")
		}
		if side[v] != 1 {
			continue
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if side[u] == 2 {
				return errors.New("separator: SideA adjacent to SideB")
			}
		}
	}
	return nil
}
