package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker-pool scheduler: a fixed set of long-lived
// goroutines parked on a channel receive (a futex wait under the hood),
// woken only when a parallel primitive submits work. Submitting a loop
// costs a few channel operations instead of spawning and destroying one
// goroutine per worker per call, which is what makes fine-grained
// synchronous rounds (Partition claim rounds, Δ-stepping bucket rounds,
// hierarchy levels) cheap enough to run back to back.
//
// Scheduling model: every primitive call is turned into a job of `slots`
// logical work units (one per requested worker). The submitting goroutine
// offers the job to the parked workers and then participates itself;
// whoever is free grabs slot indices from an atomic counter until the job
// drains. Because results depend only on the slot decomposition — never on
// which physical worker executes a slot — every primitive keeps the
// package's determinism guarantee. The submitter always helps, so a job
// completes even if every pool worker is busy (or the pool is closed), and
// nested submission — a slot body invoking another primitive on the same
// pool — cannot deadlock: the inner call is drained by its own submitter
// plus any workers that free up.
//
// Job descriptors are recycled through a sync.Pool with reference counting
// (owner plus each enqueued hand-off holds a reference), so steady-state
// submission performs no O(n) allocation; the only per-call garbage is the
// closure passed in.
//
// A nil *Pool is valid in every method and means Default(), so plumbing an
// optional pool through Options structs needs no nil checks.
type Pool struct {
	size      int
	jobs      chan *job
	quit      chan struct{}
	jobPool   sync.Pool
	closeOnce sync.Once
	closed    atomic.Bool
	// hook, when non-nil, instruments every submission for fault-injection
	// tests (SetFaultHook); submitSeq numbers the submissions it observes.
	hook      atomic.Pointer[FaultHook]
	submitSeq atomic.Int64
}

// job is one submitted parallel loop: slots logical work units drained via
// an atomic counter by the owner and any helping workers.
type job struct {
	fn      func(k int)
	slots   int64
	next    atomic.Int64  // next slot index to claim
	pending atomic.Int64  // slots not yet completed
	refs    atomic.Int64  // owner + enqueued hand-offs still holding the job
	wake    chan struct{} // helper that completes the last slot -> owner
	pool    *Pool
	// panicked records the first panic captured in a slot body; Run
	// re-panics with it on the submitter once the job has drained. Slots
	// claimed after a panic is recorded are skipped (their results would be
	// discarded anyway), but still counted, so the drain protocol — and
	// with it the pool, the descriptor freelist and Wait — is unaffected
	// by a faulting body.
	panicked atomic.Pointer[PanicError]
}

// NewPool starts a pool of the given number of persistent workers;
// workers <= 0 means runtime.GOMAXPROCS(0). Call Close to release the
// workers when the pool is no longer needed (package Default is never
// closed).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		size: workers,
		jobs: make(chan *job, workers),
		quit: make(chan struct{}),
	}
	p.jobPool.New = func() any {
		return &job{wake: make(chan struct{}, 1), pool: p}
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the process-wide shared pool (GOMAXPROCS workers),
// creating it on first use. Every method invoked on a nil *Pool runs on
// it, so one pool instance serves an entire run unless a caller explicitly
// constructs its own.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

func (p *Pool) orDefault() *Pool {
	if p == nil {
		return Default()
	}
	return p
}

// Close parks the pool permanently: the persistent workers exit. Primitives
// invoked afterwards still complete correctly — the submitting goroutine
// executes every slot itself. Close is safe to race with in-flight
// submissions: jobs already handed to workers drain normally, hand-offs the
// exiting workers never pick up are drained here or by the submitter that
// observes the pool closed, and every such Run still completes all slots
// before returning.
func (p *Pool) Close() {
	if p == nil {
		return // the shared default pool is never closed
	}
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		close(p.quit)
		// Workers may exit with hand-offs still queued; drain them —
		// helping each to completion and releasing it — so no job
		// descriptor or closure is pinned for the pool's lifetime.
		p.drainQueued()
	})
}

func (p *Pool) worker() {
	for {
		select {
		case j := <-p.jobs:
			if j.work() {
				j.wake <- struct{}{}
			}
			j.release()
		case <-p.quit:
			return
		}
	}
}

// work drains slots until the claim counter passes the end, reporting
// whether this goroutine completed the job's final slot. A slot body that
// panics is contained by runSlot: the panic is recorded on the job and the
// slot still counts as completed, so the drain protocol never stalls and
// the worker goroutine survives. Once a panic is recorded the remaining
// slots are claimed but not executed (fast-fail — the submitter is about
// to discard the computation and re-panic).
func (j *job) work() (closedJob bool) {
	slots := j.slots
	for {
		k := j.next.Add(1) - 1
		if k >= slots {
			return closedJob
		}
		if j.panicked.Load() == nil {
			j.runSlot(int(k))
		}
		if j.pending.Add(-1) == 0 {
			closedJob = true
		}
	}
}

// runSlot executes one slot body, converting a panic into the job's
// recorded *PanicError (first panic wins; a value that is already a
// *PanicError — a nested submission's fault — is kept as-is so the
// innermost stack survives).
func (j *job) runSlot(k int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, Recovered(r))
		}
	}()
	j.fn(k)
}

// release drops one reference; the last holder returns the descriptor to
// the freelist. A job is never recycled while any hand-off of it is still
// queued or any goroutine is still inside work(), which is what makes the
// freelist safe under concurrent and nested submission.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil
		j.pool.jobPool.Put(j)
	}
}

// Run executes fn(k) for every slot k in [0, slots) on the pool: parked
// workers are offered the job and the caller participates until all slots
// complete. Each slot runs exactly once; which goroutine runs it is
// unspecified. Run returns only after every slot has finished (all writes
// made by fn happen-before Run returns).
//
// Panic containment: if any slot body panics, the panic is recovered in
// the executing goroutine, the remaining slots are skipped, the job drains
// normally (the pool, its workers and the recycled descriptor all stay
// usable), and Run re-panics on the calling goroutine with the first
// captured *PanicError. Callers that need an error instead recover it at
// their boundary (parallel.Recovered); on the serial slots <= 1 path the
// body's panic propagates unwrapped, so boundaries must recover any value,
// not just *PanicError. After a contained panic the slot coverage is
// partial by design — the computation's outputs must be discarded.
func (p *Pool) Run(slots int, fn func(k int)) {
	p = p.orDefault()
	if h := p.hook.Load(); h != nil {
		seq := p.submitSeq.Add(1)
		if h.Submit != nil {
			h.Submit(seq, slots)
		}
		if h.Slot != nil {
			inner := fn
			fn = func(k int) { h.Slot(seq, k); inner(k) }
		}
	}
	if slots <= 1 {
		if slots == 1 {
			fn(0)
		}
		return
	}
	j := p.jobPool.Get().(*job)
	j.fn = fn
	j.slots = int64(slots)
	j.next.Store(0)
	j.pending.Store(int64(slots))
	j.panicked.Store(nil)
	offers := p.size
	if offers > slots-1 {
		offers = slots - 1
	}
	if p.closed.Load() {
		// No worker will ever drain the channel; queueing would pin the
		// closure (and everything it captures) for the pool's lifetime.
		offers = 0
	}
	// The reference count must cover every planned hand-off before the
	// first send: a worker may receive and release its reference while the
	// owner is still offering.
	j.refs.Store(int64(offers) + 1)
	sent := 0
	for ; sent < offers; sent++ {
		select {
		case p.jobs <- j:
		default:
			// Every worker is already busy or has a queued offer; the
			// remaining slots drain through the participants we have.
			goto offered
		}
	}
offered:
	if sent < offers {
		j.refs.Add(int64(sent - offers))
	}
	if sent > 0 && p.closed.Load() {
		// Close raced with the sends above: its drain may have run before
		// our hand-offs landed, and the exiting workers may never receive
		// them. Drain whatever is queued ourselves, acting exactly like a
		// worker (complete, signal, release), so no descriptor or closure —
		// ours or a concurrent submitter's — is pinned for the pool's
		// lifetime. Seen-closed ordering guarantees Close's store happened
		// before this load, so anything it missed is still in the channel.
		p.drainQueued()
	}
	if !j.work() {
		// Helpers still own claimed slots; the one that completes the last
		// slot signals wake.
		<-j.wake
	}
	pe := j.panicked.Load()
	j.release()
	if pe != nil {
		panic(pe)
	}
}

// drainQueued empties the job channel, standing in for the exited workers:
// each received hand-off is helped to completion and released. Called by
// Close and by submitters that observe the pool closed after enqueueing.
func (p *Pool) drainQueued() {
	for {
		select {
		case j := <-p.jobs:
			if j.work() {
				j.wake <- struct{}{}
			}
			j.release()
		default:
			return
		}
	}
}

// For runs body(i) for every i in [0, n) on the pool, splitting the index
// space into one contiguous block per logical worker.
func (p *Pool) For(workers, n int, body func(i int)) {
	p.ForRange(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange splits [0, n) into one contiguous block per logical worker and
// runs body(lo, hi) on each block.
func (p *Pool) ForRange(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		body(0, n)
		return
	}
	p.orDefault().Run(w, func(k int) {
		body(k*n/w, (k+1)*n/w)
	})
}

// ReduceInt64 computes the sum over i in [0, n) of f(i) with per-slot
// partials combined in slot order (deterministic for a fixed worker count).
func (p *Pool) ReduceInt64(workers, n int, f func(i int) int64) int64 {
	if n <= 0 {
		return 0
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		var s int64
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	partial := make([]int64, w)
	p.orDefault().Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[k] = s
	})
	var s int64
	for _, v := range partial {
		s += v
	}
	return s
}

// ReduceFloat64 is ReduceInt64 for float64 values; the fixed combine order
// keeps results deterministic for a fixed worker count.
func (p *Pool) ReduceFloat64(workers, n int, f func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		var s float64
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	partial := make([]float64, w)
	p.orDefault().Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[k] = s
	})
	var s float64
	for _, v := range partial {
		s += v
	}
	return s
}

type fpair struct {
	v float64
	i int
}

// MaxFloat64 returns the maximum of f(i) over [0, n) and the smallest index
// attaining it. n must be >= 1: an empty range has no maximum, and the call
// panics with "parallel: MaxFloat64 over empty range" rather than invent a
// sentinel that could be mistaken for data.
func (p *Pool) MaxFloat64(workers, n int, f func(i int) float64) (max float64, argmax int) {
	if n <= 0 {
		panic("parallel: MaxFloat64 over empty range")
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		best := fpair{f(0), 0}
		for i := 1; i < n; i++ {
			if v := f(i); v > best.v {
				best = fpair{v, i}
			}
		}
		return best.v, best.i
	}
	partial := make([]fpair, w)
	p.orDefault().Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		best := fpair{f(lo), lo}
		for i := lo + 1; i < hi; i++ {
			if v := f(i); v > best.v {
				best = fpair{v, i}
			}
		}
		partial[k] = best
	})
	best := partial[0]
	for _, q := range partial[1:] {
		if q.v > best.v {
			best = q
		}
	}
	return best.v, best.i
}

// ExclusiveScan replaces data with its exclusive prefix sum and returns the
// total, using the classic two-pass blocked algorithm on the pool.
func (p *Pool) ExclusiveScan(workers int, data []int64) int64 {
	n := len(data)
	if n == 0 {
		return 0
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		var run int64
		for i := 0; i < n; i++ {
			v := data[i]
			data[i] = run
			run += v
		}
		return run
	}
	p = p.orDefault()
	blockSum := make([]int64, w)
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		var s int64
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		blockSum[k] = s
	})
	var run int64
	for k := 0; k < w; k++ {
		v := blockSum[k]
		blockSum[k] = run
		run += v
	}
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		local := blockSum[k]
		for i := lo; i < hi; i++ {
			v := data[i]
			data[i] = local
			local += v
		}
	})
	return run
}

// PackInto writes the values v in [0, n) for which keep(v) is true, in
// increasing order, into dst (reused when its capacity suffices, grown
// otherwise) and returns the filled slice. The two-pass offset-scan
// structure makes the output order identical at every worker count.
func (p *Pool) PackInto(workers, n int, keep func(i int) bool, dst []uint32) []uint32 {
	if n <= 0 {
		return dst[:0]
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		out := dst[:0]
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, uint32(i))
			}
		}
		return out
	}
	p = p.orDefault()
	counts := make([]int64, w)
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		var c int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[k] = c
	})
	var run int64
	for k := 0; k < w; k++ {
		v := counts[k]
		counts[k] = run
		run += v
	}
	out := GrowUint32(dst, int(run))
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		pos := counts[k]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[pos] = uint32(i)
				pos++
			}
		}
	})
	return out
}

// FilterUint32 writes the elements of src for which keep is true into dst
// (reused when its capacity suffices), preserving src order, and returns
// the filled slice. Like PackInto it is a two-pass count/scan/copy, so the
// output is identical at every worker count; keep is therefore invoked
// twice per element and concurrently from pool workers — it must be pure
// and safe for concurrent use. src and dst must not overlap.
func (p *Pool) FilterUint32(workers int, src []uint32, keep func(uint32) bool, dst []uint32) []uint32 {
	n := len(src)
	if n == 0 {
		return dst[:0]
	}
	w := Workers(workers, n)
	if w == 1 || n < serialCutoff {
		out := dst[:0]
		for _, v := range src {
			if keep(v) {
				out = append(out, v)
			}
		}
		return out
	}
	p = p.orDefault()
	counts := make([]int64, w)
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		var c int64
		for _, v := range src[lo:hi] {
			if keep(v) {
				c++
			}
		}
		counts[k] = c
	})
	var run int64
	for k := 0; k < w; k++ {
		v := counts[k]
		counts[k] = run
		run += v
	}
	out := GrowUint32(dst, int(run))
	p.Run(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		pos := counts[k]
		for _, v := range src[lo:hi] {
			if keep(v) {
				out[pos] = v
				pos++
			}
		}
	})
	return out
}

// Concat appends the contents of bufs (in buffer order) to dst with one
// pre-sized grow, an offset scan, and a parallel per-buffer copy — the
// scan-based frontier compaction that replaces serial worker-order
// concatenation. dst is reused when capacity suffices.
func (p *Pool) Concat(workers int, dst []uint32, bufs [][]uint32) []uint32 {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return dst
	}
	base := len(dst)
	dst = GrowUint32(dst, base+total)
	if total < serialCutoff || Workers(workers, len(bufs)) == 1 {
		off := base
		for _, b := range bufs {
			copy(dst[off:], b)
			off += len(b)
		}
		return dst
	}
	p.orDefault().Run(len(bufs), func(k int) {
		// Buffer counts are small (one per logical worker), so each slot
		// recomputes its offset instead of allocating a scan array.
		off := base
		for i := 0; i < k; i++ {
			off += len(bufs[i])
		}
		copy(dst[off:], bufs[k])
	})
	return dst
}

// GrowUint32 resizes s to length n, reusing its backing array when the
// capacity suffices and preserving the prefix otherwise.
func GrowUint32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]uint32, n)
	copy(out, s)
	return out
}

// FillPool sets every element of data to v using the given pool (nil means
// Default).
func FillPool[T any](p *Pool, workers int, data []T, v T) {
	p.ForRange(workers, len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = v
		}
	})
}
