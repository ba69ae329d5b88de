// Package parallel provides the PRAM-style primitives the decomposition
// algorithms are written against: parallel for-loops over index ranges,
// blocked reductions, prefix sums (scans), stream packing and filtering,
// radix sorts, and a bit-packed set with atomic claims.
//
// All primitives are methods on a persistent worker pool (Pool) instead of
// functions that spawn goroutines per call: callers construct their own
// pool or use the shared Default() one (a nil *Pool means Default()). A
// pool's workers are started once,
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
