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
// Scheduling model: every submission is a job of `slots` logical work
// units: the blocks of a blocked pass, or the slots a Run asks for. A slot
// of a blocked pass computes its block's bounds inside the job and calls
// the caller's body directly. The submitting goroutine
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
// an atomic counter by the owner and any helping workers. Slot k of a
// blocked pass runs the block [k·n/slots, (k+1)·n/slots) of its range.
type job struct {
	task    task
	n       int
	slots   int64
	next    atomic.Int64  // next slot index to claim
	pending atomic.Int64  // slots not yet completed
	refs    atomic.Int64  // owner + enqueued hand-offs still holding the job
	wake    chan struct{} // helper that completes the last slot -> owner
	pool    *Pool
	// hook and seq are the fault hook observing this submission, if any,
	// and the sequence number it gave it.
	hook *FaultHook
	seq  int64
	// panicked records the first panic captured in a slot body; Run
	// re-panics with it on the submitter once the job has drained. Slots
	// claimed after a panic is recorded are skipped (their results would be
	// discarded anyway), but still counted, so the drain protocol — and
	// with it the pool, the descriptor freelist and Wait — is unaffected
	// by a faulting body.
	panicked atomic.Pointer[PanicError]
}

// task is the body of one submission, in the shape its caller wrote it:
// exactly one function is set, and the job hands it the caller's function
// itself, so no wrapper closure is allocated per submission.
type task struct {
	slot  func(k int)            // Run: slot k
	each  func(i int)            // For: every index of the block
	span  func(lo, hi int)       // ForRange: the block
	block func(k, lo, hi int)    // ForBlocks: the block and its number
	count func(lo, hi int) int64 // ScanBlocks: offs[k] = the block's count
	offs  []int64
}

// run executes t on slot k, whose block is [lo, hi).
func (t *task) run(k, lo, hi int) {
	switch {
	case t.slot != nil:
		t.slot(k)
	case t.each != nil:
		for i := lo; i < hi; i++ {
			t.each(i)
		}
	case t.span != nil:
		t.span(lo, hi)
	case t.block != nil:
		t.block(k, lo, hi)
	default:
		t.offs[k] = t.count(lo, hi)
	}
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
	if h := j.hook; h != nil && h.Slot != nil {
		h.Slot(j.seq, k)
	}
	w := int(j.slots)
	j.task.run(k, k*j.n/w, (k+1)*j.n/w)
}

// release drops one reference; the last holder returns the descriptor to
// the freelist. A job is never recycled while any hand-off of it is still
// queued or any goroutine is still inside work(), which is what makes the
// freelist safe under concurrent and nested submission.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.task, j.hook = task{}, nil
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
	p.orDefault().submit(slots, slots, task{slot: fn})
}

// submit runs t on slots slots over the range [0, n) as one job.
func (p *Pool) submit(slots, n int, t task) {
	h := p.hook.Load()
	var seq int64
	if h != nil {
		seq = p.submitSeq.Add(1)
		if h.Submit != nil {
			h.Submit(seq, slots)
		}
	}
	if slots <= 1 {
		if slots == 1 {
			if h != nil && h.Slot != nil {
				h.Slot(seq, 0)
			}
			t.run(0, 0, n)
		}
		return
	}
	j := p.jobPool.Get().(*job)
	j.task, j.n = t, n
	j.hook, j.seq = h, seq
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

// For runs body(i) for every i in [0, n) on the pool, one block of
// indices per slot.
func (p *Pool) For(workers, n int, body func(i int)) {
	if n > 0 {
		p.blocks(Blocks(workers, n), n, task{each: body})
	}
}

// ForRange runs body(lo, hi) on each block of [0, n).
func (p *Pool) ForRange(workers, n int, body func(lo, hi int)) {
	if n > 0 {
		p.blocks(Blocks(workers, n), n, task{span: body})
	}
}

// ForBlocks runs body(k, lo, hi) on each block k of the w blocks of
// [0, n), [k·n/w, (k+1)·n/w); w comes from Blocks. Unlike ForRange it runs
// the one block of an empty range too, so a body that writes per-block
// results writes them at every n.
func (p *Pool) ForBlocks(w, n int, body func(k, lo, hi int)) {
	p.blocks(w, n, task{block: body})
}

// ScanBlocks is the offset scan, the order-preserving first pass of a
// blocked kernel: it runs count on each of the w blocks of [0, n) and
// turns the counts into exclusive offsets, so offs[k] is the total count
// of the blocks before k and offs[w], which it returns, the grand total.
// offs must hold w+1 entries; w comes from Blocks. A second ForBlocks pass
// then writes block k's output from offs[k], so the output is in block
// order, the same at every w.
func (p *Pool) ScanBlocks(w, n int, offs []int64, count func(lo, hi int) int64) int64 {
	p.blocks(w, n, task{count: count, offs: offs})
	offs[w] = scan(offs[:w], 0)
	return offs[w]
}

// blocks runs t on the w blocks of [0, n): inline on the caller for one
// block, which is then not a pool submission, as one job otherwise.
func (p *Pool) blocks(w, n int, t task) {
	if w <= 1 {
		t.run(0, 0, n)
		return
	}
	p.orDefault().submit(w, n, t)
}

// ReduceInt64 computes the sum over i in [0, n) of f(i) with per-block
// partials combined in block order (deterministic for a fixed worker
// count).
func (p *Pool) ReduceInt64(workers, n int, f func(i int) int64) int64 {
	return reduce(p, workers, n, f)
}

// ReduceFloat64 is ReduceInt64 for float64 values; the fixed combine order
// keeps results deterministic for a fixed worker count.
func (p *Pool) ReduceFloat64(workers, n int, f func(i int) float64) float64 {
	return reduce(p, workers, n, f)
}

// reduce is the one body of ReduceInt64 and ReduceFloat64.
func reduce[T int64 | float64](p *Pool, workers, n int, f func(i int) T) T {
	w := Blocks(workers, n)
	if w == 1 {
		return sum(f, 0, n)
	}
	partial := make([]T, w)
	p.ForBlocks(w, n, func(k, lo, hi int) { partial[k] = sum(f, lo, hi) })
	var s T
	for _, v := range partial {
		s += v
	}
	return s
}

// sum adds f over [lo, hi) left to right.
func sum[T int64 | float64](f func(i int) T, lo, hi int) T {
	var s T
	for i := lo; i < hi; i++ {
		s += f(i)
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
	w := Blocks(workers, n)
	if w == 1 {
		best := maxRange(f, 0, n)
		return best.v, best.i
	}
	partial := make([]fpair, w)
	p.ForBlocks(w, n, func(k, lo, hi int) { partial[k] = maxRange(f, lo, hi) })
	best := partial[0]
	for _, q := range partial[1:] {
		if q.v > best.v {
			best = q
		}
	}
	return best.v, best.i
}

// maxRange is the maximum of f over the nonempty [lo, hi) with its
// smallest argmax.
func maxRange(f func(i int) float64, lo, hi int) fpair {
	best := fpair{f(lo), lo}
	for i := lo + 1; i < hi; i++ {
		if v := f(i); v > best.v {
			best = fpair{v, i}
		}
	}
	return best
}

// ExclusiveScan replaces data with its exclusive prefix sum and returns the
// total: the offset scan of the block sums, then each block's own scan from
// its offset.
func (p *Pool) ExclusiveScan(workers int, data []int64) int64 {
	n := len(data)
	w := Blocks(workers, n)
	if w == 1 {
		return scan(data, 0)
	}
	offs := make([]int64, w+1)
	total := p.ScanBlocks(w, n, offs, func(lo, hi int) int64 {
		var s int64
		for _, v := range data[lo:hi] {
			s += v
		}
		return s
	})
	p.ForBlocks(w, n, func(k, lo, hi int) { scan(data[lo:hi], offs[k]) })
	return total
}

// scan replaces s with its exclusive prefix sum started at run and returns
// the running total past its end.
func scan(s []int64, run int64) int64 {
	for i, v := range s {
		s[i] = run
		run += v
	}
	return run
}

// PackInto writes the values v in [0, n) for which keep(v) is true, in
// increasing order, into dst (reused when its capacity suffices, grown
// otherwise) and returns the filled slice. The offset scan makes the
// output order identical at every worker count.
func (p *Pool) PackInto(workers, n int, keep func(i int) bool, dst []uint32) []uint32 {
	w := Blocks(workers, n)
	if w == 1 {
		return pack(keep, 0, n, dst[:0])
	}
	offs := make([]int64, w+1)
	total := p.ScanBlocks(w, n, offs, func(lo, hi int) int64 {
		var c int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		return c
	})
	out := GrowUint32(dst, int(total))
	p.ForBlocks(w, n, func(k, lo, hi int) { pack(keep, lo, hi, out[offs[k]:offs[k]:offs[k+1]]) })
	return out
}

// pack appends to out the i in [lo, hi) that keep accepts, in order.
func pack(keep func(i int) bool, lo, hi int, out []uint32) []uint32 {
	for i := lo; i < hi; i++ {
		if keep(i) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// FilterUint32 writes the elements of src for which keep is true into dst
// (reused when its capacity suffices), preserving src order, and returns
// the filled slice. Like PackInto it is an offset scan and a fill, so the
// output is identical at every worker count; keep is therefore invoked
// twice per element and concurrently from pool workers — it must be pure
// and safe for concurrent use. src and dst must not overlap.
func (p *Pool) FilterUint32(workers int, src []uint32, keep func(uint32) bool, dst []uint32) []uint32 {
	n := len(src)
	w := Blocks(workers, n)
	if w == 1 {
		return filter(keep, src, dst[:0])
	}
	offs := make([]int64, w+1)
	total := p.ScanBlocks(w, n, offs, func(lo, hi int) int64 {
		var c int64
		for _, v := range src[lo:hi] {
			if keep(v) {
				c++
			}
		}
		return c
	})
	out := GrowUint32(dst, int(total))
	p.ForBlocks(w, n, func(k, lo, hi int) { filter(keep, src[lo:hi], out[offs[k]:offs[k]:offs[k+1]]) })
	return out
}

// filter appends to out the elements of src that keep accepts, in order.
func filter(keep func(uint32) bool, src, out []uint32) []uint32 {
	for _, v := range src {
		if keep(v) {
			out = append(out, v)
		}
	}
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
