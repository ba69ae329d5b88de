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
//
// Two patterns carry every blocked pass, here and in the callers' own
// kernels. The blocked submission (Blocks, ForBlocks) splits [0, n) into
// w blocks, block k being [k·n/w, (k+1)·n/w), and a range below
// serialCutoff into one block, run inline on the caller. The offset scan
// (ScanBlocks) counts per block and turns the counts into exclusive
// offsets, so a second blocked pass writes each block's output from its
// offset, in block order. Each primitive writes its loop body once, as a
// plain function of its range: the one-block path calls it directly, the
// pool path from the submitted blocks.
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
// more than it saves: every blocked pass — the primitives, the radix sort
// passes and the callers' own kernels — runs a smaller range as one block
// on the caller, so the whole stack switches to parallel execution at one
// size.
const serialCutoff = 2048

// Blocks returns the number of blocks a blocked pass splits [0, n) into:
// one below serialCutoff, Workers(workers, n) otherwise. Block k of w is
// [k·n/w, (k+1)·n/w).
func Blocks(workers, n int) int {
	if n < serialCutoff {
		return 1
	}
	return Workers(workers, n)
}
