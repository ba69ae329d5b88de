package core

import (
	"math"

	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// shiftPlan is everything derived from the random shifts before the BFS
// starts: start-time buckets, tie-breaking ranks, and the raw shifts for
// reporting and verification.
type shiftPlan struct {
	shifts   []float64 // δ_u for every vertex
	deltaMax float64
	bucket   []int32 // ⌊δ_max − δ_u⌋ for every vertex: the round at which u may start a cluster
	// verts lists, ascending, the vertices the BFS rounds visit; the plan
	// ranks and buckets these only.
	verts []uint32
	// rank is the tie-break rank by vertex id; lower rank wins same-round
	// claims. Only entries in verts are set, except under TiePermutation,
	// whose rank is the whole permutation.
	rank    []uint32
	buckets [][]uint32 // verts by start round, each bucket in id order
}

// GenerateShifts draws the per-vertex shifts for (opts.Seed,
// opts.ShiftSource, β) exactly as Partition does, on opts.Pool with
// opts.Workers; exposed so experiments (E4: Lemma 4.2) can study the shift
// distribution in isolation. The values depend on neither the pool nor
// the worker count.
func GenerateShifts(n int, beta float64, opts Options) []float64 {
	shifts := make([]float64, n)
	switch opts.ShiftSource {
	case ShiftExponential:
		opts.Pool.For(opts.Workers, n, func(v int) {
			shifts[v] = xrand.Exp(opts.Seed, uint64(v), beta)
		})
	case ShiftQuantile:
		// Section 5: derive shifts from positions in a random permutation.
		// Position k of n receives the (k+½)/n quantile of Exp(β).
		rng := xrand.NewSplitMix64(opts.Seed)
		perm := rng.Perm32(n)
		for v := 0; v < n; v++ {
			q := (float64(perm[v]) + 0.5) / float64(n)
			shifts[v] = -math.Log(1-q) / beta
		}
	default:
		panic("core: unknown ShiftSource")
	}
	return shifts
}

// startRound splits vertex u's start time s_u = δ_max − δ_u into its
// round ⌊s_u⌋ and the IEEE bits of its fractional part. The bits order
// like the values they encode, since fractional parts are non-negative, so
// they serve as radix-sort keys; the plan and UnchangedUnder both derive
// ranks through this one subtraction and floor, so they agree bit for bit.
func startRound(deltaMax, shift float64) (round int32, fracBits uint64) {
	s := deltaMax - shift
	b := math.Floor(s)
	return int32(b), math.Float64bits(s - b)
}

// newShiftPlan prepares the plan for a partition run over the vertices for
// which visit is true. Shifts and start rounds cover all n vertices; the
// tie-break sort and the start buckets cover the visited ones only. Every
// O(n) pass and the radix sort execute on the caller's pool.
func newShiftPlan(n int, beta float64, opts Options, visit func(v int) bool) *shiftPlan {
	p := &shiftPlan{
		shifts: GenerateShifts(n, beta, opts),
		bucket: make([]int32, n),
	}
	if n == 0 {
		return p
	}
	pool := opts.Pool
	p.deltaMax, _ = pool.MaxFloat64(opts.Workers, n, func(i int) float64 { return p.shifts[i] })
	pool.For(opts.Workers, n, func(v int) {
		p.bucket[v], _ = startRound(p.deltaMax, p.shifts[v])
	})
	p.verts = pool.PackInto(opts.Workers, n, visit, nil)

	switch opts.TieBreak {
	case TieFractional:
		// Rank vertices by the fractional part of their start time; distinct
		// with probability 1, residual float ties broken by vertex id (the
		// paper's lexicographic rule for the zero-probability event). Ranks
		// are only compared with each other, so ranking the visited
		// vertices alone keeps every comparison the rounds make. verts is
		// ascending, so index order is id order.
		fracBits := make([]uint64, len(p.verts))
		pool.For(opts.Workers, len(p.verts), func(i int) {
			_, fracBits[i] = startRound(p.deltaMax, p.shifts[p.verts[i]])
		})
		p.rank = make([]uint32, n)
		for r, i := range fracOrder(pool, opts.Workers, fracBits) {
			p.rank[p.verts[i]] = uint32(r)
		}
	case TiePermutation:
		// An independent uniform permutation; Section 5 observes the
		// fractional parts may be replaced by one.
		rng := xrand.NewSplitMix64(xrand.Mix(opts.Seed, 0x7065726d)) // "perm"
		p.rank = rng.Perm32(n)
	default:
		panic("core: unknown TieBreak")
	}

	// Counting sort of verts by start round into one backing array: each
	// bucket is a zero-length window with its exact capacity, and the
	// appends fill it in id order.
	nBuckets := int(math.Floor(p.deltaMax)) + 1
	first := make([]int, nBuckets+1)
	for _, v := range p.verts {
		first[p.bucket[v]+1]++
	}
	for b := 0; b < nBuckets; b++ {
		first[b+1] += first[b]
	}
	flat := make([]uint32, len(p.verts))
	p.buckets = make([][]uint32, nBuckets)
	for b := range p.buckets {
		p.buckets[b] = flat[first[b]:first[b]:first[b+1]]
	}
	for _, v := range p.verts {
		b := p.bucket[v]
		p.buckets[b] = append(p.buckets[b], v)
	}
	return p
}

// everyVertex visits all vertices: the full plan the references use.
func everyVertex(int) bool { return true }

// fracOrder returns the indices of fracBits sorted by (fracBits[i], i)
// ascending, where fracBits[i] holds the IEEE bits of a fractional part;
// it permutes fracBits. The indices enter SortPairs in ascending order, so
// its stability realizes the lexicographic tie-break without a
// comparison, and its output, being unique, is the same at every worker
// count.
func fracOrder(pool *parallel.Pool, workers int, fracBits []uint64) []uint32 {
	order := make([]uint32, len(fracBits))
	for i := range order {
		order[i] = uint32(i)
	}
	pool.SortPairs(workers, fracBits, order, nil, nil)
	return order
}

// HarmonicNumber returns H_n = sum_{i=1..n} 1/i, the quantity Lemma 4.2
// compares E[δ_max]·β against.
func HarmonicNumber(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
