package graph

import (
	"fmt"
	"sync/atomic"

	"mpx/internal/parallel"
)

// This file is the parallel contraction layer of the hierarchy engine
// (internal/hier). Each mode has one body, shared by both graph kinds: it
// runs over a CSR plus an optional per-arc weight array, nil for an
// unweighted graph. contractPool builds the quotient graph of a cluster
// labeling with slice-based label compaction and a pool radix sort on
// packed (qu, qv) 64-bit arc keys; cutSubgraphPool builds the residual
// graph of cut edges on the same vertex set (the Linial–Saks block
// iteration). Both construct the CSR directly from the sorted symmetric arc
// keys, so no per-vertex adjacency sort (and none of its per-vertex
// closures) runs, and with a reused ContractScratch a steady-state
// contraction level performs a small constant number of allocations — the
// result graph and the quotient map — each sized O(cut edges), never O(m)
// map churn. The serial map-based ContractClusters and
// ContractWeightedClusters are the references the tests hold them to.

// ContractScratch owns every reusable buffer of the pooled contraction and
// residual kernels. A zero value is ready to use; reusing one across the
// levels of a hierarchy makes steady-state contractions allocate only
// their results. Buffers are sized to the first (largest) level and shrink
// logically afterwards.
type ContractScratch struct {
	// CutArcs reports, after a pooled contraction or residual call, the
	// number of directed cut arcs the input graph had (twice the
	// undirected cut edges, before parallel-edge dedup). The hierarchy
	// engine reads it for per-level stats instead of re-scanning all arcs.
	CutArcs int64

	firstPos []uint32 // per label: smallest vertex carrying it
	qid      []uint32 // per label: dense quotient id
	firsts   []uint32 // labels' first-carrier vertices, ascending
	arcKeys  []uint64 // packed (qu, qv) directed cut arcs
	arcTmp   []uint64 // radix-sort ping-pong + dedup output
	blockOff []int64  // per-block offsets of the offset scans
	counts   []int64  // quotient degree histogram

	// Weighted graphs only.
	arcW   []float64 // per collected cut arc: its weight, in collection order
	arcPos []uint32  // collection positions riding the stable radix sort
	posTmp []uint32  // SortPairs value scratch
}

// minUint32 atomically lowers *addr to v if v is smaller. Minimum is
// order-independent, so concurrent callers land on a deterministic value.
func minUint32(addr *uint32, v uint32) {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return
		}
	}
}

// ContractClustersPool is ContractClusters executed on a persistent worker
// pool (nil means parallel.Default()): the quotient graph of the given
// cluster labels plus the vertex→quotient mapping, bit-identical to the
// serial ContractClusters — quotient ids are assigned in first-appearance
// order and the CSR is canonical (sorted adjacency) — at every worker
// count. Label values must lie in [0, n), as a decomposition's Center
// does; any other value returns an error wrapping ErrVertexRange.
func ContractClustersPool(pool *parallel.Pool, workers int, g *Graph, label []uint32, sc *ContractScratch) (*Graph, []uint32, error) {
	q, _, quot, err := contractPool(pool, workers, g, nil, label, sc)
	return q, quot, err
}

// CutSubgraphPool returns the graph on the same vertex set containing
// exactly the edges of g whose endpoints carry different labels — the
// residual graph the block-decomposition iteration recurses on. The result
// is bit-identical to FromEdges(n, cutEdges).
func CutSubgraphPool(pool *parallel.Pool, workers int, g *Graph, label []uint32, sc *ContractScratch) (*Graph, error) {
	q, _, err := cutSubgraphPool(pool, workers, g, nil, label, sc)
	return q, err
}

// contractPool is the one body of ContractClustersPool and
// ContractWeightedClustersPool: the quotient CSR of g under label, the
// summed quotient arc weights when weights (g's per-arc array) is non-nil,
// and the vertex→quotient map. Unweighted keys are radix-sorted bare;
// weighted keys carry their collection positions through the stable
// SortPairs, so each run of parallel arcs is summed in collection order
// (contract_weighted.go says why that order is part of the contract).
func contractPool(pool *parallel.Pool, workers int, g *Graph, weights []float64, label []uint32, sc *ContractScratch) (*Graph, []float64, []uint32, error) {
	n := g.NumVertices()
	if len(label) != n {
		return nil, nil, nil, fmt.Errorf("graph: label length %d for n=%d", len(label), n)
	}
	if sc == nil {
		sc = &ContractScratch{}
	}
	quot, nq, err := compactLabelsPool(pool, workers, n, label, sc)
	if err != nil {
		return nil, nil, nil, err
	}

	keys := collectCutArcs(pool, workers, g.Offsets(), g.Adjacency(), weights, label, quot, sc)
	c := len(keys)
	sc.CutArcs = int64(c)
	sc.arcTmp = parallel.Grow(sc.arcTmp, c)
	if weights == nil {
		pool.SortUint64(workers, keys, sc.arcTmp)
	} else {
		sc.arcPos = parallel.Grow(sc.arcPos, c)
		pos := sc.arcPos
		pool.ForRange(workers, c, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pos[i] = uint32(i)
			}
		})
		sc.posTmp = parallel.Grow(sc.posTmp, c)
		pool.SortPairs(workers, keys, pos, sc.arcTmp, sc.posTmp)
	}
	// Parallel contracted edges collapse to runs of equal keys; keep one.
	arcs, wout := dedupSortedArcs(pool, workers, keys, weights != nil, sc)
	if weights != nil {
		mirrorLowerArcWeights(pool, workers, arcs, wout)
	}
	q, err := csrFromSortedArcs(pool, workers, nq, arcs, sc)
	if err != nil {
		return nil, nil, nil, err
	}
	return q, wout, quot, nil
}

// cutSubgraphPool is the one body of CutSubgraphPool and
// CutWeightedSubgraphPool: the residual CSR of g's cut arcs under label,
// plus their original weights when weights is non-nil. Unlike contraction,
// neither a sort nor a dedup pass is needed: identity-mapped cut arcs of a
// simple graph stay distinct and are collected in ascending (v, u) order
// over sorted adjacency (an invariant every constructor and validateCSR
// enforce), so the collected arc list is already the canonical CSR.
func cutSubgraphPool(pool *parallel.Pool, workers int, g *Graph, weights []float64, label []uint32, sc *ContractScratch) (*Graph, []float64, error) {
	n := g.NumVertices()
	if len(label) != n {
		return nil, nil, fmt.Errorf("graph: label length %d for n=%d", len(label), n)
	}
	if sc == nil {
		sc = &ContractScratch{}
	}
	keys := collectCutArcs(pool, workers, g.Offsets(), g.Adjacency(), weights, label, nil, sc)
	c := len(keys)
	sc.CutArcs = int64(c)
	q, err := csrFromSortedArcs(pool, workers, n, keys, sc)
	if err != nil || weights == nil {
		return q, nil, err
	}
	wout := make([]float64, c)
	arcW := sc.arcW
	pool.ForRange(workers, c, func(lo, hi int) {
		copy(wout[lo:hi], arcW[lo:hi])
	})
	return q, wout, nil
}

// compactLabelsPool densely renumbers the label values in first-appearance
// order without a map: the quotient id of a label is its rank among the
// smallest vertices carrying each label, which is exactly the order a
// serial first-appearance scan assigns. It returns the freshly allocated
// vertex→quotient map and the quotient vertex count, or an error wrapping
// ErrVertexRange if a label lies outside [0, n).
func compactLabelsPool(pool *parallel.Pool, workers, n int, label []uint32, sc *ContractScratch) ([]uint32, int, error) {
	sc.firstPos = parallel.Grow(sc.firstPos, n)
	firstPos := sc.firstPos
	parallel.FillPool(pool, workers, firstPos, ^uint32(0))
	var bad int32
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if int(label[v]) >= n {
				atomic.StoreInt32(&bad, 1)
				continue
			}
			minUint32(&firstPos[label[v]], uint32(v))
		}
	})
	if bad != 0 {
		return nil, 0, fmt.Errorf("%w: cluster label outside [0, %d)", ErrVertexRange, n)
	}
	sc.firsts = pool.PackInto(workers, n, func(v int) bool {
		return firstPos[label[v]] == uint32(v)
	}, sc.firsts)
	firsts := sc.firsts
	nq := len(firsts)
	sc.qid = parallel.Grow(sc.qid, n)
	qid := sc.qid
	pool.For(workers, nq, func(i int) {
		qid[label[firsts[i]]] = uint32(i)
	})
	quot := make([]uint32, n)
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			quot[v] = qid[label[v]]
		}
	})
	return quot, nq, nil
}

// collectCutArcs gathers the packed key (quot[v]<<32 | quot[u]) — or
// (v<<32 | u) when quot is nil — for every directed arc (v, u) of the CSR
// (offsets, adj) whose endpoints carry different class labels, in
// (v, adjacency) order. With non-nil weights (a weighted graph's per-arc
// array) it also gathers each such arc's weight into sc.arcW, aligned with
// the keys. The offset scan and in-order fill make the output independent
// of scheduling.
func collectCutArcs(pool *parallel.Pool, workers int, offsets []int64, adj []uint32, weights []float64, class, quot []uint32, sc *ContractScratch) []uint64 {
	n := len(offsets) - 1
	w := parallel.Blocks(workers, n)
	sc.blockOff = parallel.Grow(sc.blockOff, w+1)
	off := sc.blockOff
	total := pool.ScanBlocks(w, n, off, func(lo, hi int) int64 {
		var cnt int64
		for v := lo; v < hi; v++ {
			cv := class[v]
			for _, u := range adj[offsets[v]:offsets[v+1]] {
				if class[u] != cv {
					cnt++
				}
			}
		}
		return cnt
	})
	sc.arcKeys = parallel.Grow(sc.arcKeys, int(total))
	if weights != nil {
		sc.arcW = parallel.Grow(sc.arcW, int(total))
	}
	keys, arcW := sc.arcKeys, sc.arcW
	pool.ForBlocks(w, n, func(k, lo, hi int) {
		pos := off[k]
		for v := lo; v < hi; v++ {
			cv := class[v]
			first := offsets[v]
			for j, u := range adj[first:offsets[v+1]] {
				if class[u] == cv {
					continue
				}
				if quot != nil {
					keys[pos] = uint64(quot[v])<<32 | uint64(quot[u])
				} else {
					keys[pos] = uint64(v)<<32 | uint64(u)
				}
				if weights != nil {
					arcW[pos] = weights[first+int64(j)]
				}
				pos++
			}
		}
	})
	return keys
}

// CutEdgesPool counts the undirected edges of g whose endpoints carry
// different labels, reducing on pool (nil means parallel.Default()). The
// single-level applications (separator, embedding) report it as their
// level's cut; the hierarchy kernels report twice it as ContractScratch's
// CutArcs.
func CutEdgesPool(pool *parallel.Pool, workers int, g *Graph, label []uint32) int64 {
	offsets, adj := g.Offsets(), g.Adjacency()
	arcs := pool.ReduceInt64(workers, g.NumVertices(), func(v int) int64 {
		var c int64
		lv := label[v]
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if label[u] != lv {
				c++
			}
		}
		return c
	})
	return arcs / 2
}

// dedupSortedArcs compacts runs of equal keys in the sorted input into
// sc.arcTmp and returns the compacted prefix. With sum set it also returns
// a freshly allocated weight array: out weight i is the sum of sc.arcW over
// run i's positions in sc.arcPos (the collection positions that rode the
// stable sort), added left to right in sorted order, which is exactly the
// canonical collection order at every worker count. An offset scan over
// the run heads and an in-order fill, same discipline as the frontier
// concatenations; a block handles every run that STARTS in it, scanning
// past the block boundary when a run crosses it, so each run is summed
// exactly once.
func dedupSortedArcs(pool *parallel.Pool, workers int, keys []uint64, sum bool, sc *ContractScratch) ([]uint64, []float64) {
	m := len(keys)
	w := parallel.Blocks(workers, m)
	sc.blockOff = parallel.Grow(sc.blockOff, w+1)
	off := sc.blockOff
	total := pool.ScanBlocks(w, m, off, func(lo, hi int) int64 {
		var cnt int64
		for i := lo; i < hi; i++ {
			if i == 0 || keys[i] != keys[i-1] {
				cnt++
			}
		}
		return cnt
	})
	out := sc.arcTmp[:total]
	var wout []float64
	if sum {
		wout = make([]float64, total)
	}
	arcW, pos := sc.arcW, sc.arcPos
	pool.ForBlocks(w, m, func(k, lo, hi int) {
		p := off[k]
		for i := lo; i < hi; i++ {
			if i != 0 && keys[i] == keys[i-1] {
				continue
			}
			out[p] = keys[i]
			if sum {
				s := arcW[pos[i]]
				for j := i + 1; j < m && keys[j] == keys[i]; j++ {
					s += arcW[pos[j]]
				}
				wout[p] = s
			}
			p++
		}
	})
	return out, wout
}

// csrFromSortedArcs builds the canonical CSR graph on nq vertices whose
// directed arc list is exactly the given sorted, deduplicated packed keys.
// Because the keys are sorted by (source, target), the adjacency array is
// simply the low halves in order and every neighbor list comes out sorted
// — no per-vertex sort pass. The two result slices are the only
// allocations.
func csrFromSortedArcs(pool *parallel.Pool, workers int, nq int, arcs []uint64, sc *ContractScratch) (*Graph, error) {
	sc.counts = parallel.Grow(sc.counts, nq)
	counts := sc.counts
	parallel.FillPool(pool, workers, counts, 0)
	var bad int32
	pool.ForRange(workers, len(arcs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := arcs[i] >> 32
			if int(src) >= nq || int(uint32(arcs[i])) >= nq {
				atomic.StoreInt32(&bad, 1)
				continue
			}
			atomic.AddInt64(&counts[src], 1)
		}
	})
	if bad != 0 {
		return nil, ErrVertexRange
	}
	offs := make([]int64, nq+1)
	pool.ForRange(workers, nq, func(lo, hi int) {
		copy(offs[lo:hi], counts[lo:hi])
	})
	total := pool.ExclusiveScan(workers, offs[:nq])
	offs[nq] = total
	adjOut := make([]uint32, len(arcs))
	pool.ForRange(workers, len(arcs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			adjOut[i] = uint32(arcs[i])
		}
	})
	return &Graph{offsets: offs, adj: adjOut}, nil
}
