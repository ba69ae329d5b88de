package core

import (
	"math"

	"mpx/internal/graph"
)

// WeightedDecomposition is the result of PartitionWeighted.
type WeightedDecomposition struct {
	G        *graph.WeightedGraph
	Beta     float64
	Center   []uint32
	Dist     []float64 // weighted distance to the assigned center
	Parent   []uint32
	Shifts   []float64
	DeltaMax float64
	// Rounds is the number of parallel relaxation rounds executed when the
	// decomposition was computed by PartitionWeightedParallel (zero for the
	// sequential Dijkstra path) — the Section 6 depth measurement.
	Rounds int
}

// PartitionWeighted extends Partition to positively weighted graphs, the
// direction sketched in the paper's Section 6: the analysis of Section 4
// carries over verbatim (shifts are Exp(β), assignment minimizes
// dist_w(u,v) − δ_u), and an edge of weight w is cut with probability
// O(βw). The implementation is PartitionExact's shifted Dijkstra with the
// edge weights as arc lengths; it is sequential because, as the paper
// notes, hop count no longer bounds depth in the weighted setting.
//
// The returned pieces have weighted radius at most δ_max = O(log n / β) in
// expectation and the expected total weight of cut edges is O(β · Σ_e w_e).
func PartitionWeighted(wg *graph.WeightedGraph, beta float64, opts Options) (*WeightedDecomposition, error) {
	if !ValidBeta(beta) {
		return nil, ErrBeta
	}
	n := wg.NumVertices()
	d := &WeightedDecomposition{
		G:      wg,
		Beta:   beta,
		Center: make([]uint32, n),
		Dist:   make([]float64, n),
		Parent: make([]uint32, n),
	}
	if n == 0 {
		return d, nil
	}
	var err error
	d.Shifts, d.DeltaMax, err = shiftedDijkstra(wg.Unweighted(), wg.Weights(), beta, opts, func(v, center, proposer uint32) {
		d.Center[v], d.Parent[v] = center, proposer
		if proposer != v {
			// Weighted distance along the tree edge from the proposer.
			w, _ := wg.Weight(proposer, v)
			d.Dist[v] = d.Dist[proposer] + w
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// NumClusters returns the number of pieces.
func (d *WeightedDecomposition) NumClusters() int {
	c := 0
	for v, ctr := range d.Center {
		if uint32(v) == ctr {
			c++
		}
	}
	return c
}

// MaxRadius returns the largest weighted distance from any vertex to its
// center.
func (d *WeightedDecomposition) MaxRadius() float64 {
	var max float64
	for _, x := range d.Dist {
		if x > max {
			max = x
		}
	}
	return max
}

// CutWeightFraction returns (total weight of cut edges) / (total weight of
// all edges), the weighted analogue of CutFraction.
func (d *WeightedDecomposition) CutWeightFraction() float64 {
	n := d.G.NumVertices()
	var cutW, totalW float64
	for v := 0; v < n; v++ {
		nbrs, ws := d.G.Neighbors(uint32(v))
		for i, u := range nbrs {
			if uint32(v) < u {
				totalW += ws[i]
				if d.Center[v] != d.Center[u] {
					cutW += ws[i]
				}
			}
		}
	}
	if totalW == 0 {
		return 0
	}
	return cutW / totalW
}

// CutEdgeFraction returns (number of cut edges) / m for the weighted
// decomposition.
func (d *WeightedDecomposition) CutEdgeFraction() float64 {
	n := d.G.NumVertices()
	var cut, m int64
	for v := 0; v < n; v++ {
		nbrs, _ := d.G.Neighbors(uint32(v))
		for _, u := range nbrs {
			if uint32(v) < u {
				m++
				if d.Center[v] != d.Center[u] {
					cut++
				}
			}
		}
	}
	if m == 0 {
		return 0
	}
	return float64(cut) / float64(m)
}

// Validate checks the structural invariants of a weighted decomposition:
// centers belong to their own pieces, tree edges exist, distances are
// consistent along parents, and every piece radius is at most the center's
// shift (the paper's Lemma 4.2 argument: dist(u,v) ≤ δ_u − δ_v ≤ δ_u).
func (d *WeightedDecomposition) Validate() error {
	const eps = 1e-9
	n := len(d.Center)
	if d.G == nil || d.G.NumVertices() != n {
		return validationErrorf("weighted: graph/decomposition size mismatch")
	}
	for v := range d.Center {
		c := d.Center[v]
		if int(c) >= n {
			return validationErrorf("weighted: vertex %d assigned to out-of-range center %d", v, c)
		}
		if d.Center[c] != c {
			return validationErrorf("weighted: center %d of vertex %d is not its own center", c, v)
		}
		p := d.Parent[v]
		if uint32(v) == c {
			if p != uint32(v) || d.Dist[v] != 0 {
				return validationErrorf("weighted: center %d has bad parent/dist", v)
			}
			continue
		}
		if int(p) >= n {
			return validationErrorf("weighted: vertex %d has out-of-range parent %d", v, p)
		}
		if d.Center[p] != c {
			return validationErrorf("weighted: parent %d of %d lies in another piece", p, v)
		}
		w, ok := d.G.Weight(p, uint32(v))
		if !ok {
			return validationErrorf("weighted: tree edge {%d,%d} not in graph", p, v)
		}
		if math.Abs(d.Dist[v]-(d.Dist[p]+w)) > eps {
			return validationErrorf("weighted: distance of %d inconsistent with parent", v)
		}
		if d.Dist[v] > d.Shifts[c]+eps {
			return validationErrorf("weighted: vertex %d at distance %g exceeds center shift %g",
				v, d.Dist[v], d.Shifts[c])
		}
	}
	return nil
}
