package core

import (
	"context"

	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// BallGrowingCtx is the classical sequential low-diameter decomposition the
// paper describes in its introduction: repeatedly grow a BFS ball from an
// unassigned vertex until the ball's boundary (arcs to unassigned vertices
// outside) is at most β times its residual volume (arcs from ball members
// to vertices not already carved into other balls), carve the ball off, and
// recurse on the remainder.
//
// Every growth step multiplies the volume by at least (1+β), so each piece
// has radius at most log_{1+β}(2m) = O(log m / β); summing the stopping
// condition over all balls bounds the cut edges by O(βm). These are the
// guarantees of Theorem 1.2 up to constants, but the pieces are found one
// after another — the Ω(n)-length sequential dependence chain that the
// paper's algorithm removes. It is the sequential baseline of experiment
// E7.
//
// ctx (nil means never cancelled) is polled at every ball-growth round —
// the serial analog of the parallel round boundary. A cancelled run
// returns (nil, ctx.Err()) with no partial decomposition.
func BallGrowingCtx(ctx context.Context, g *graph.Graph, beta float64, seed uint64) (*Decomposition, error) {
	if !ValidBeta(beta) {
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
	assigned := make([]bool, n)
	order := xrand.NewSplitMix64(seed).Perm32(n)

	ball := make([]uint32, 0, 64)
	for _, start := range order {
		if assigned[start] {
			continue
		}
		ball = ball[:0]
		ball = append(ball, start)
		assigned[start] = true
		d.Center[start] = start
		d.Dist[start] = 0
		d.Parent[start] = start

		// volume: arcs from ball members to vertices not carved into other
		// balls (i.e. in this ball or still unassigned).
		var volume int64
		for _, u := range g.Neighbors(start) {
			if !assigned[u] || d.Center[u] == start {
				volume++
			}
		}
		frontierLo, frontierHi := 0, 1
		radius := int32(0)
		for {
			if cerr := ctxErr(ctx); cerr != nil {
				return nil, cerr
			}
			// Boundary: arcs from the current frontier to unassigned
			// vertices. Older levels have none — their unassigned neighbors
			// were all absorbed when the next level was built.
			var boundary int64
			for i := frontierLo; i < frontierHi; i++ {
				for _, u := range g.Neighbors(ball[i]) {
					if !assigned[u] {
						boundary++
					}
				}
			}
			d.Relaxed += boundary
			if boundary <= int64(beta*float64(max64(volume, 1))) {
				break
			}
			// Absorb the next level.
			radius++
			for i := frontierLo; i < frontierHi; i++ {
				v := ball[i]
				for _, u := range g.Neighbors(v) {
					if !assigned[u] {
						assigned[u] = true
						d.Center[u] = start
						d.Dist[u] = radius
						d.Parent[u] = v
						ball = append(ball, u)
					}
				}
			}
			for i := frontierHi; i < len(ball); i++ {
				for _, u := range g.Neighbors(ball[i]) {
					if !assigned[u] || d.Center[u] == start {
						volume++
					}
				}
				d.Relaxed += int64(g.Degree(ball[i]))
			}
			frontierLo, frontierHi = frontierHi, len(ball)
			d.Rounds++
		}
	}
	return d, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
