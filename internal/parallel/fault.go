package parallel

// FaultHook instruments a pool for deterministic fault-injection tests
// (internal/parallel/faultpool). Both callbacks may be nil. A hook may
// panic (exercising the slot-panic containment path), sleep (exercising
// schedule perturbation), or cancel a context it captured. Production code
// never installs a hook; with no hook installed the only cost on the
// submission path is one atomic pointer load.
type FaultHook struct {
	// Submit runs on the submitting goroutine at the start of every
	// submission — every Run call (including the serial slots<=1 fast
	// path) and every blocked pass of more than one block — before any job
	// state is touched; a panic here propagates out of the submitting call
	// directly. A one-block pass runs inline and is no submission. seq is
	// the 1-based submission sequence number of the pool.
	Submit func(seq int64, slots int)
	// Slot runs on the executing goroutine (a pool worker or the helping
	// submitter) immediately before each slot body. A panic here is
	// captured exactly like a panic in the slot body itself.
	Slot func(seq int64, slot int)
}

// SetFaultHook installs h on the pool (nil uninstalls). Test support only:
// hooks observe every submission, so an installed hook serializes nothing
// but sees everything. Safe for concurrent use with running submissions —
// in-flight jobs may or may not observe a hook swap.
func (p *Pool) SetFaultHook(h *FaultHook) {
	p.orDefault().hook.Store(h)
}

// SubmitCount returns the number of submissions the pool has performed
// while a fault hook was installed (the seq values hooks observe). It is
// the probe fault-injection tests use to size their injection points.
func (p *Pool) SubmitCount() int64 {
	return p.orDefault().submitSeq.Load()
}
