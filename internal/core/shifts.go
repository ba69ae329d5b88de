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
	shifts   []float64 // δ_u
	deltaMax float64
	start    []float64 // s_u = δ_max − δ_u
	bucket   []int32   // ⌊s_u⌋: the BFS round at which u may start a cluster
	rank     []uint32  // tie-break rank; lower rank wins same-round claims
	buckets  [][]uint32
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

// newShiftPlan prepares the plan for a partition run; every O(n) pass and
// the tie-break radix sort execute on the caller's pool.
func newShiftPlan(n int, beta float64, opts Options) *shiftPlan {
	p := &shiftPlan{
		shifts: GenerateShifts(n, beta, opts),
		start:  make([]float64, n),
		bucket: make([]int32, n),
		rank:   make([]uint32, n),
	}
	if n == 0 {
		return p
	}
	pool := opts.Pool
	p.deltaMax, _ = pool.MaxFloat64(opts.Workers, n, func(i int) float64 { return p.shifts[i] })

	// The IEEE bits of each start time's fractional part: order-preserving
	// for these non-negative values, so they rank as radix-sort keys.
	fracBits := make([]uint64, n)
	pool.For(opts.Workers, n, func(v int) {
		s := p.deltaMax - p.shifts[v]
		p.start[v] = s
		b := math.Floor(s)
		p.bucket[v] = int32(b)
		fracBits[v] = math.Float64bits(s - b)
	})

	switch opts.TieBreak {
	case TieFractional:
		// Rank vertices by the fractional part of their start time; distinct
		// with probability 1, residual float ties broken by vertex id (the
		// paper's lexicographic rule for the zero-probability event).
		for r, v := range fracOrder(pool, opts.Workers, fracBits) {
			p.rank[v] = uint32(r)
		}
	case TiePermutation:
		// An independent uniform permutation; Section 5 observes the
		// fractional parts may be replaced by one.
		rng := xrand.NewSplitMix64(xrand.Mix(opts.Seed, 0x7065726d)) // "perm"
		perm := rng.Perm32(n)
		copy(p.rank, perm)
	default:
		panic("core: unknown TieBreak")
	}

	nBuckets := int(math.Floor(p.deltaMax)) + 1
	p.buckets = make([][]uint32, nBuckets)
	for v := 0; v < n; v++ {
		b := p.bucket[v]
		p.buckets[b] = append(p.buckets[b], uint32(v))
	}
	return p
}

// fracOrder returns the vertex ids sorted by (frac, id) ascending, where
// fracBits[v] holds the IEEE bits of vertex v's fractional part; it
// permutes fracBits. The ids enter SortPairs in ascending order, so its
// stability realizes the lexicographic tie-break without a comparison,
// and its output, being unique, is the same at every worker count.
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
