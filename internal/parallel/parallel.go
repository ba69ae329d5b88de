// Package parallel provides the PRAM-style primitives the decomposition
// algorithms are written against: parallel for-loops over index ranges,
// blocked reductions, prefix sums (scans), stream packing and filtering,
// radix sorts, and a bit-packed set with atomic claims.
//
// All primitives execute on a persistent worker pool (Pool) instead of
// spawning goroutines per call: the package-level functions run on the
// shared Default() pool, and every primitive is also a method on *Pool for
// callers that construct their own. A pool's workers are started once,
// park on a channel between submissions, and are woken only when a loop is
// submitted; the submitting goroutine always participates, so loops
// complete even on a closed pool and nested submission cannot deadlock.
// See the Pool type for the scheduling model and lifecycle.
//
// All primitives take an explicit worker count so callers can sweep
// parallelism in experiments; workers <= 0 means runtime.GOMAXPROCS(0).
// The worker count fixes the logical block decomposition (and therefore
// the result), not the physical parallelism: which pool worker executes a
// block is unspecified. Every primitive is deterministic — its result
// never depends on goroutine scheduling.
package parallel

import "runtime"

// Workers normalizes a requested worker count: values <= 0 become
// GOMAXPROCS, and the count is never larger than n (no idle spinners for
// tiny inputs).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// serialCutoff is the range size below which submitting to the pool costs
// more than it saves; loops this small run inline.
const serialCutoff = 2048

// CompactCutoff is the shared work-size threshold below which round loops
// (partition round compaction copies, shift-plan passes, radix sorts) run
// inline rather than on the pool. It equals the primitive serial cutoff so
// the whole stack switches to parallel execution at one size.
const CompactCutoff = serialCutoff

// For runs body(i) for every i in [0, n) using the given number of workers
// on the default pool. The index space is split into contiguous blocks, one
// per worker, so body benefits from cache locality over CSR arrays.
func For(workers, n int, body func(i int)) {
	Default().For(workers, n, body)
}

// ForRange splits [0, n) into one contiguous block per worker and runs
// body(lo, hi) on each block concurrently on the default pool.
func ForRange(workers, n int, body func(lo, hi int)) {
	Default().ForRange(workers, n, body)
}

// ReduceInt64 computes the sum over i in [0, n) of f(i) using a blocked
// tree-free reduction (per-worker partials, then a serial combine).
func ReduceInt64(workers, n int, f func(i int) int64) int64 {
	return Default().ReduceInt64(workers, n, f)
}

// MaxFloat64 returns the maximum of f(i) over [0, n) and the smallest index
// attaining it. n must be >= 1.
func MaxFloat64(workers, n int, f func(i int) float64) (max float64, argmax int) {
	return Default().MaxFloat64(workers, n, f)
}

// ExclusiveScan replaces data with its exclusive prefix sum and returns the
// total. The scan is computed with the classic two-pass blocked algorithm:
// per-block sums, serial scan of block sums, then per-block local scans.
func ExclusiveScan(workers int, data []int64) int64 {
	return Default().ExclusiveScan(workers, data)
}
