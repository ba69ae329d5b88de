package core

import (
	"container/heap"
	"math"

	"mpx/internal/graph"
)

// PartitionSequential computes exactly the same decomposition as Partition
// (same Options semantics, bit-identical Center/Dist/Parent arrays) using a
// sequential multi-source Dijkstra over the lexicographic keys
// (⌊δ_max−δ_c⌋ + dist, rank(c), proposer). It exists as the oracle the
// parallel implementation is property-tested against.
func PartitionSequential(g *graph.Graph, beta float64, opts Options) (*Decomposition, error) {
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
	plan := newShiftPlan(n, beta, opts, everyVertex)
	d.Shifts = plan.shifts
	d.DeltaMax = plan.deltaMax

	type label struct {
		key      int64 // integer part of shifted distance
		rank     uint32
		proposer uint32
		settled  bool
	}
	labels := make([]label, n)
	for i := range labels {
		labels[i] = label{key: math.MaxInt64, rank: math.MaxUint32, proposer: math.MaxUint32}
	}
	h := &refHeap{}
	for v := 0; v < n; v++ {
		it := refItem{key: int64(plan.bucket[v]), rank: plan.rank[v], proposer: uint32(v), target: uint32(v)}
		labels[v] = label{key: it.key, rank: it.rank, proposer: it.proposer}
		heap.Push(h, it)
	}
	roundSeen := make(map[int64]struct{})
	lastKey := int64(math.MinInt64)
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		lb := &labels[it.target]
		if lb.settled || it.key != lb.key || it.rank != lb.rank || it.proposer != lb.proposer {
			continue
		}
		// A key advance is the serial analog of a parallel BFS round
		// boundary — the same poll cadence Partition uses, so -timeout and
		// fault-injection contexts observe serial runs too.
		if it.key != lastKey {
			lastKey = it.key
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				return nil, cerr
			}
		}
		lb.settled = true
		roundSeen[it.key] = struct{}{}
		v := it.target
		if it.proposer == v && it.key == int64(plan.bucket[v]) {
			d.Center[v] = v
			d.Parent[v] = v
			d.Dist[v] = 0
		} else {
			c := d.Center[it.proposer]
			d.Center[v] = c
			d.Parent[v] = it.proposer
			d.Dist[v] = int32(it.key - int64(plan.bucket[c]))
		}
		cand := refItem{key: it.key + 1, rank: plan.rank[d.Center[v]], proposer: v}
		for _, u := range g.Neighbors(v) {
			lu := &labels[u]
			if lu.settled {
				continue
			}
			if cand.key < lu.key ||
				(cand.key == lu.key && (cand.rank < lu.rank ||
					(cand.rank == lu.rank && cand.proposer < lu.proposer))) {
				lu.key, lu.rank, lu.proposer = cand.key, cand.rank, cand.proposer
				heap.Push(h, refItem{key: cand.key, rank: cand.rank, proposer: cand.proposer, target: u})
			}
		}
		d.Relaxed += int64(g.Degree(v))
	}
	// Depth proxy: distinct settled keys = non-empty BFS rounds of the
	// parallel run.
	d.Rounds = len(roundSeen)
	return d, nil
}

// refItem is a heap entry for the sequential reference.
type refItem struct {
	key      int64
	rank     uint32
	proposer uint32
	target   uint32
}

type refHeap struct {
	items []refItem
}

func (h *refHeap) Len() int { return len(h.items) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.proposer < b.proposer
}
func (h *refHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x interface{}) { h.items = append(h.items, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// PartitionExact is the literal Algorithm 2 of the paper run sequentially:
// assign every vertex v to the center u minimizing the real-valued shifted
// distance dist(u,v) − δ_u, ties broken lexicographically by center id. It
// is shiftedDijkstra at unit arc lengths. Used to cross-validate the
// integer-round implementation; with fractional tie-breaking the two agree
// exactly unless float addition rounds a fractional part across an integer
// boundary.
func PartitionExact(g *graph.Graph, beta float64, opts Options) (*Decomposition, error) {
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
	var err error
	d.Shifts, d.DeltaMax, err = shiftedDijkstra(g, nil, beta, opts, func(v, center, proposer uint32) {
		d.Center[v], d.Parent[v] = center, proposer
		if proposer != v {
			d.Dist[v] = d.Dist[proposer] + 1
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// shiftedDijkstra is the one loop of PartitionExact and PartitionWeighted:
// a Dijkstra from an implicit super-source with an arc of length
// δ_max − δ_v into every vertex v, over g's arcs with lengths weights (g's
// per-arc array; nil means unit lengths). Keys are floats, and equal keys
// go to the smaller center id. It draws the shifts, calls settle once per
// vertex in settle order with the vertex's center and the vertex it was
// reached from (itself for a center), and returns the shifts and δ_max.
// Float keys have no integer rounds, so Options.Ctx is polled on a fixed
// settle cadence instead. g must have at least one vertex.
func shiftedDijkstra(g *graph.Graph, weights []float64, beta float64, opts Options, settle func(v, center, proposer uint32)) ([]float64, float64, error) {
	n := g.NumVertices()
	shifts := GenerateShifts(n, beta, opts)
	deltaMax, _ := opts.Pool.MaxFloat64(opts.Workers, n, func(i int) float64 { return shifts[i] })
	offsets, adj := g.Offsets(), g.Adjacency()

	type flabel struct {
		f       float64
		center  uint32
		settled bool
	}
	labels := make([]flabel, n)
	h := &floatRefHeap{}
	for v := 0; v < n; v++ {
		start := deltaMax - shifts[v]
		labels[v] = flabel{f: start, center: uint32(v)}
		heap.Push(h, floatRefItem{f: start, center: uint32(v), proposer: uint32(v), target: uint32(v)})
	}
	settled := 0
	for h.Len() > 0 {
		it := heap.Pop(h).(floatRefItem)
		lb := &labels[it.target]
		if lb.settled || it.f != lb.f || it.center != lb.center {
			continue
		}
		if settled%1024 == 0 {
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				return nil, 0, cerr
			}
		}
		settled++
		lb.settled = true
		v := it.target
		settle(v, it.center, it.proposer)
		for i := offsets[v]; i < offsets[v+1]; i++ {
			u := adj[i]
			lu := &labels[u]
			if lu.settled {
				continue
			}
			nf := it.f + 1
			if weights != nil {
				nf = it.f + weights[i]
			}
			if nf < lu.f || (nf == lu.f && it.center < lu.center) {
				lu.f, lu.center = nf, it.center
				heap.Push(h, floatRefItem{f: nf, center: it.center, proposer: v, target: u})
			}
		}
	}
	return shifts, deltaMax, nil
}

type floatRefItem struct {
	f        float64
	center   uint32
	proposer uint32
	target   uint32
}

type floatRefHeap struct {
	items []floatRefItem
}

func (h *floatRefHeap) Len() int { return len(h.items) }
func (h *floatRefHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.f != b.f {
		return a.f < b.f
	}
	return a.center < b.center
}
func (h *floatRefHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *floatRefHeap) Push(x interface{}) { h.items = append(h.items, x.(floatRefItem)) }
func (h *floatRefHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
