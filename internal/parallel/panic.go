package parallel

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic captured inside a pool job slot (or at an engine
// containment boundary) and surfaced to the submitting goroutine as a
// typed value. Without this containment a panic inside a For/Reduce body
// executing on a pool worker would crash the whole process — worker
// goroutines have no caller to recover on — or, were it swallowed, strand
// the submitter in Wait forever. Instead the faulting slot records the
// first panic (with its stack), the job drains normally so the pool and
// its recycled descriptors stay fully usable, and Run re-panics with the
// *PanicError on the submitter, where ordinary defer/recover applies. The
// engine entry points (core.Partition, hier.BuildHierarchy/UpdateCtx, ...)
// recover it into an error return.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the stack of the goroutine that panicked, captured at
	// recover time (the innermost faulting slot for nested submissions).
	Stack []byte
}

// Error formats the panic value; the captured stack is available via
// e.Stack for diagnostics.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in pool job: %v", e.Value)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As chains
// (panic(err) is a common idiom); nil when the value is not an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered wraps a recovered panic value into a *PanicError, preserving
// an already-wrapped one (so a panic that crossed several pool layers
// keeps the innermost stack). It is the helper the engine containment
// boundaries use:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = parallel.Recovered(r)
//		}
//	}()
func Recovered(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}
