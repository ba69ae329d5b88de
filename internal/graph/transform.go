package graph

import (
	"fmt"

	"mpx/internal/xrand"
)

// Permute relabels the vertices of g by the given permutation: vertex v in
// g becomes perm[v] in the result. Decomposition algorithms whose behavior
// must be label-independent are tested against permuted copies.
func Permute(g *Graph, perm []uint32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d for n=%d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: not a permutation")
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				edges = append(edges, Edge{perm[v], perm[u]})
			}
		}
	}
	return FromEdges(n, edges)
}

// RandomPermutation returns a uniform random relabeling for Permute.
func RandomPermutation(n int, seed uint64) []uint32 {
	return xrand.NewSplitMix64(seed).Perm32(n)
}

// ContractClusters returns the quotient graph whose vertices are the
// distinct values of label (densely renumbered in first-appearance order)
// and whose edges connect clusters joined by at least one original edge.
// It also returns the mapping from original vertex to quotient vertex.
// Self-loops (intra-cluster edges) are dropped; parallel edges collapsed.
// This is the contraction step of decomposition hierarchies (AKPW, tree
// embeddings) in its serial, map-based form: production runs
// ContractClustersPool, and the graph and hier tests hold that kernel
// bit-identical to this reference.
func ContractClusters(g *Graph, label []uint32) (*Graph, []uint32, error) {
	n := g.NumVertices()
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
	var edges []Edge
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u && quot[v] != quot[u] {
				edges = append(edges, Edge{quot[v], quot[u]})
			}
		}
	}
	out, err := FromEdgesDedup(len(remap), edges)
	if err != nil {
		return nil, nil, err
	}
	return out, quot, nil
}
