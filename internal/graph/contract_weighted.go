package graph

import (
	"fmt"
	"sort"

	"mpx/internal/parallel"
)

// This file is the weighted contraction layer of the hierarchy engine:
// ContractWeightedClustersPool builds the weighted quotient graph of a
// cluster labeling — parallel edges that contract onto the same quotient
// pair have their weights SUMMED, the AKPW invariant that lets a weighted
// hierarchy keep total edge weight conserved level by level — and
// CutWeightedSubgraphPool builds the weighted residual graph of cut edges
// on the same vertex set. Both are typed entry points to the bodies in
// contract.go, which take the graph's per-arc weight array alongside its
// CSR: the stable pool radix sort on packed (qu, qv) arc keys, run sums,
// and direct CSR construction from the sorted arcs.
//
// Floating-point sums are order-sensitive, so the summation order is part
// of the contract: for every quotient edge {a, b} with a < b, the weights
// of the original cut arcs mapping onto the UPPER arc (a, b) are added
// left to right in the input's canonical (v, adjacency) collection order,
// and the lower arc (b, a) carries the identical bits. Without the
// mirroring the two directions would sum the same multiset in different
// orders and could disagree in the last ulp — an asymmetric weighted graph
// breaks the push/pull bit-identity of the weighted partition one level
// up. The parallel path realizes the canonical order with the stable
// SortPairs (equal keys keep collection order) plus sequential run sums,
// and the serial reference realizes it with a plain first-touch map
// accumulation over the same scan — so the two are bit-identical at every
// worker count (TestContractWeightedPoolMatchesSerial).

// ContractWeightedClusters is the serial, map-based reference for weighted
// contraction: the quotient graph of the given cluster labels, with the
// weight of every quotient edge equal to the sum of the weights of the
// original cut edges contracting onto it (each direction of a quotient arc
// accumulates the same sum because the arc scan is symmetric). Quotient
// ids are assigned in first-appearance order, exactly like ContractClusters.
func ContractWeightedClusters(wg *WeightedGraph, label []uint32) (*WeightedGraph, []uint32, error) {
	n := wg.NumVertices()
	if len(label) != n {
		return nil, nil, fmt.Errorf("graph: label length %d for n=%d", len(label), n)
	}
	remap := make(map[uint32]uint32)
	quot := make([]uint32, n)
	for v := 0; v < n; v++ {
		l := label[v]
		q, ok := remap[l]
		if !ok {
			q = uint32(len(remap))
			remap[l] = q
		}
		quot[v] = q
	}
	nq := len(remap)
	// Accumulate directed quotient-arc weights in canonical (v, adjacency)
	// collection order — the summation order the parallel path reproduces.
	wsum := make(map[uint64]float64)
	var arcs []uint64
	for v := 0; v < n; v++ {
		nbrs, ws := wg.Neighbors(uint32(v))
		for i, u := range nbrs {
			if label[u] == label[v] {
				continue
			}
			key := uint64(quot[v])<<32 | uint64(quot[u])
			if _, ok := wsum[key]; !ok {
				arcs = append(arcs, key)
			}
			wsum[key] += ws[i]
		}
	}
	// Canonicalize: the lower arc (b, a) adopts the upper arc's (a, b) sum
	// so both directions carry identical bits.
	for _, a := range arcs {
		if src, dst := uint32(a>>32), uint32(a); src > dst {
			wsum[a] = wsum[uint64(dst)<<32|uint64(src)]
		}
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
	offs := make([]int64, nq+1)
	for _, a := range arcs {
		offs[(a>>32)+1]++
	}
	for i := 0; i < nq; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]uint32, len(arcs))
	weights := make([]float64, len(arcs))
	for i, a := range arcs {
		adj[i] = uint32(a)
		weights[i] = wsum[a]
	}
	return &WeightedGraph{offsets: offs, adj: adj, weights: weights}, quot, nil
}

// ContractWeightedClustersPool is ContractWeightedClusters executed on a
// persistent worker pool (nil means parallel.Default()), bit-identical to
// the serial reference — including the IEEE bits of every summed quotient
// weight — at every worker count. It shares its body with
// ContractClustersPool: label values must lie in [0, n), and sc.CutArcs
// reports the input's directed cut arcs.
func ContractWeightedClustersPool(pool *parallel.Pool, workers int, wg *WeightedGraph, label []uint32, sc *ContractScratch) (*WeightedGraph, []uint32, error) {
	q, w, quot, err := contractPool(pool, workers, wg.Unweighted(), wg.arcWeights(), label, sc)
	if err != nil {
		return nil, nil, err
	}
	return &WeightedGraph{offsets: q.offsets, adj: q.adj, weights: w}, quot, nil
}

// CutWeightedSubgraphPool returns the weighted graph on the same vertex
// set containing exactly the edges of wg whose endpoints carry different
// labels, with their original weights — the residual graph a weighted
// block decomposition recurses on. It is bit-identical to
// FromWeightedEdges over the cut edges.
func CutWeightedSubgraphPool(pool *parallel.Pool, workers int, wg *WeightedGraph, label []uint32, sc *ContractScratch) (*WeightedGraph, error) {
	q, w, err := cutSubgraphPool(pool, workers, wg.Unweighted(), wg.arcWeights(), label, sc)
	if err != nil {
		return nil, err
	}
	return &WeightedGraph{offsets: q.offsets, adj: q.adj, weights: w}, nil
}

// arcWeights returns the per-arc weight array, non-nil even for a graph
// without arcs: the shared kernels read a nil array as an unweighted graph.
func (g *WeightedGraph) arcWeights() []float64 {
	if g.weights == nil {
		return []float64{}
	}
	return g.weights
}

// mirrorLowerArcWeights overwrites every lower arc's (src > dst) weight
// with its mirror upper arc's, so each undirected quotient edge carries one
// bit pattern in both directions. The arc list is sorted, so the mirror is
// a binary search; the pass is idempotent and schedule-independent.
func mirrorLowerArcWeights(pool *parallel.Pool, workers int, arcs []uint64, wout []float64) {
	pool.ForRange(workers, len(arcs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src, dst := uint32(arcs[i]>>32), uint32(arcs[i])
			if src <= dst {
				continue
			}
			mkey := uint64(dst)<<32 | uint64(src)
			j := sort.Search(len(arcs), func(j int) bool { return arcs[j] >= mkey })
			wout[i] = wout[j]
		}
	})
}
