package core

import (
	"fmt"
)

// validationError reports a violated decomposition invariant.
type validationError struct{ msg string }

func (e *validationError) Error() string { return e.msg }

func validationErrorf(format string, args ...interface{}) error {
	return &validationError{msg: "core: " + fmt.Sprintf(format, args...)}
}

// Validate checks every structural invariant of an unweighted
// decomposition. It is used by the test suite and (at reduced scale) by the
// experiment harness; Theorem 1.2's proof sketch notes the decomposition is
// verifiable in O(m) work, which is what this does:
//
//  1. every vertex has a center and the center belongs to its own piece;
//  2. parent pointers form per-piece trees rooted at the centers, with
//     Dist increasing by exactly 1 along tree edges (so pieces are
//     connected — Lemma 4.1);
//  3. Dist[v] equals the true distance from the center *within the piece*
//     (checked by an in-piece BFS), certifying the strong-diameter bound;
//  4. when shifts are present, Dist[v] ≤ δ_center (the Lemma 4.2 radius
//     argument) and the piece radius bound MaxRadius ≥ Dist[v] holds.
func (d *Decomposition) Validate() error {
	n := d.NumVertices()
	if n == 0 {
		return nil
	}
	if d.G == nil || d.G.NumVertices() != n {
		return validationErrorf("graph/decomposition size mismatch")
	}
	for v := 0; v < n; v++ {
		c := d.Center[v]
		if int(c) >= n {
			return validationErrorf("vertex %d assigned to out-of-range center %d", v, c)
		}
		if d.Center[c] != c {
			return validationErrorf("center %d of vertex %d is not its own center", c, v)
		}
		p := d.Parent[v]
		if uint32(v) == c {
			if p != uint32(v) {
				return validationErrorf("center %d has parent %d", v, p)
			}
			if d.Dist[v] != 0 {
				return validationErrorf("center %d has nonzero dist %d", v, d.Dist[v])
			}
			continue
		}
		if d.Dist[v] <= 0 {
			return validationErrorf("non-center %d has dist %d", v, d.Dist[v])
		}
		if int(p) >= n {
			return validationErrorf("vertex %d has out-of-range parent %d", v, p)
		}
		if d.Center[p] != c {
			return validationErrorf("parent %d of vertex %d lies in a different piece", p, v)
		}
		if d.Dist[v] != d.Dist[p]+1 {
			return validationErrorf("dist of %d (%d) not parent dist+1 (%d)", v, d.Dist[v], d.Dist[p])
		}
		if !d.G.HasEdge(p, uint32(v)) {
			return validationErrorf("tree edge {%d,%d} not in graph", p, v)
		}
		if d.Shifts != nil {
			if float64(d.Dist[v]) > d.Shifts[c] {
				return validationErrorf("vertex %d at dist %d exceeds center %d's shift %g",
					v, d.Dist[v], c, d.Shifts[c])
			}
		}
	}
	// In-piece BFS distances must match Dist exactly: the claimed tree
	// distance is the true within-piece distance (Lemma 4.1).
	if err := d.checkInPieceDistances(); err != nil {
		return err
	}
	return nil
}

// checkInPieceDistances runs, per piece, a BFS from the center restricted
// to the piece and compares against Dist.
func (d *Decomposition) checkInPieceDistances() error {
	n := d.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []uint32
	for c0 := 0; c0 < n; c0++ {
		c := uint32(c0)
		if d.Center[c] != c {
			continue
		}
		queue = append(queue[:0], c)
		dist[c] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range d.G.Neighbors(v) {
				if d.Center[u] == c && dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if dist[v] == -1 {
			return validationErrorf("vertex %d unreachable from its center within its piece", v)
		}
		if dist[v] != d.Dist[v] {
			return validationErrorf("vertex %d: in-piece distance %d != recorded %d", v, dist[v], d.Dist[v])
		}
	}
	return nil
}

// StrongDiameters computes the exact strong diameter of every piece by
// running an all-pairs BFS inside each piece. Cost is O(size · edges) per
// piece — use on moderate graphs (tests, small experiments); large-scale
// experiments report Radii instead, exactly as the paper does (the radius
// 2-approximates the strong diameter).
func (d *Decomposition) StrongDiameters() map[uint32]int32 {
	members := d.Members()
	out := make(map[uint32]int32, len(members))
	n := d.NumVertices()
	dist := make([]int32, n)
	var queue []uint32
	for c, vs := range members {
		var diam int32
		for _, s := range vs {
			for _, v := range vs {
				dist[v] = -1
			}
			dist[s] = 0
			queue = append(queue[:0], s)
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for _, u := range d.G.Neighbors(v) {
					if d.Center[u] == c && dist[u] == -1 {
						dist[u] = dist[v] + 1
						queue = append(queue, u)
					}
				}
			}
			for _, v := range vs {
				if dist[v] > diam {
					diam = dist[v]
				}
			}
		}
		out[c] = diam
	}
	return out
}
