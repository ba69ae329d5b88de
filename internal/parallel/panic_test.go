package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanicError runs f and returns the *PanicError it panicked with,
// failing the test if f returned normally or panicked with something else.
func recoverPanicError(t *testing.T, f func()) *PanicError {
	t.Helper()
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a panic, got normal return")
			}
			var ok bool
			pe, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("expected *PanicError, got %T: %v", r, r)
			}
		}()
		f()
	}()
	return pe
}

// TestRunPanicContained checks that a panic in one slot body surfaces on
// the submitter as a *PanicError with the faulting stack, and that the
// remaining slots are skipped while the job still drains completely.
func TestRunPanicContained(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var ran atomic.Int64
		pe := recoverPanicError(t, func() {
			p.Run(64, func(k int) {
				if k == 7 {
					panic("boom in slot 7")
				}
				ran.Add(1)
			})
		})
		if pe.Value != "boom in slot 7" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !strings.Contains(pe.Error(), "boom in slot 7") {
			t.Fatalf("workers=%d: Error() = %q", workers, pe.Error())
		}
		if ran.Load() >= 64 {
			t.Fatalf("workers=%d: all 64 slots ran despite panic", workers)
		}
		// The pool must be fully reusable afterwards: descriptors recycle
		// with the panic record cleared, workers are still parked.
		for rep := 0; rep < 3; rep++ {
			var n atomic.Int64
			p.Run(128, func(k int) { n.Add(1) })
			if n.Load() != 128 {
				t.Fatalf("workers=%d rep=%d: reused pool ran %d/128 slots", workers, rep, n.Load())
			}
		}
		p.Close()
	}
}

// TestRunPanicSerialPath checks that the slots<=1 fast path propagates the
// body's panic unwrapped (no job machinery is involved), as documented.
func TestRunPanicSerialPath(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if _, ok := r.(*PanicError); ok {
			t.Fatalf("serial path should panic unwrapped, got *PanicError")
		}
		if r != "serial boom" {
			t.Fatalf("panic value = %v", r)
		}
	}()
	p.Run(1, func(k int) { panic("serial boom") })
}

// TestRunPanicFirstWins checks that when several slots panic, exactly one
// PanicError is recorded and surfaced.
func TestRunPanicFirstWins(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	pe := recoverPanicError(t, func() {
		p.Run(32, func(k int) { panic(fmt.Sprintf("slot %d", k)) })
	})
	if !strings.HasPrefix(pe.Value.(string), "slot ") {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

// TestRunPanicNested checks that a panic escaping a nested submission keeps
// the innermost *PanicError (and its stack) across both pool layers.
func TestRunPanicNested(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	pe := recoverPanicError(t, func() {
		p.Run(4, func(outer int) {
			p.Run(8, func(inner int) {
				if outer == 1 && inner == 3 {
					panic("nested boom")
				}
			})
		})
	})
	if pe.Value != "nested boom" {
		t.Fatalf("nested panic value = %v (wrapped instead of preserved?)", pe.Value)
	}
}

// TestPanicErrorUnwrap checks that panicking with an error threads through
// errors.Is on the surfaced PanicError.
func TestPanicErrorUnwrap(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	sentinel := errors.New("sentinel failure")
	pe := recoverPanicError(t, func() {
		p.Run(16, func(k int) {
			if k == 5 {
				panic(sentinel)
			}
		})
	})
	if !errors.Is(pe, sentinel) {
		t.Fatalf("errors.Is(pe, sentinel) = false; Value = %v", pe.Value)
	}
}

// TestRecovered checks the boundary helper directly: a raw panic value is
// wrapped with the current stack, and an already-wrapped one is returned
// as is, so the innermost stack survives several layers.
func TestRecovered(t *testing.T) {
	pe := Recovered("boom")
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("Recovered(\"boom\") = %+v", pe)
	}
	if again := Recovered(pe); again != pe {
		t.Fatal("Recovered rewrapped a *PanicError")
	}
}

// TestRunPanicPrimitives checks that panics inside the higher-level
// primitives (For, ForRange, ForBlocks, ScanBlocks) are contained the same
// way and leave the primitives reusable.
func TestRunPanicPrimitives(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	recoverPanicError(t, func() {
		p.For(8, 10000, func(i int) {
			if i == 9999 {
				panic("for boom")
			}
		})
	})
	recoverPanicError(t, func() {
		p.ForRange(8, 10000, func(lo, hi int) {
			if lo <= 5000 && 5000 < hi {
				panic("range boom")
			}
		})
	})
	w := Blocks(8, 10000)
	recoverPanicError(t, func() {
		p.ForBlocks(w, 10000, func(k, lo, hi int) {
			if k == w-1 {
				panic("block boom")
			}
		})
	})
	recoverPanicError(t, func() {
		p.ScanBlocks(w, 10000, make([]int64, w+1), func(lo, hi int) int64 {
			if lo == 0 {
				panic("count boom")
			}
			return 0
		})
	})
	got := p.ReduceInt64(8, 10000, func(i int) int64 { return 1 })
	if got != 10000 {
		t.Fatalf("ReduceInt64 after contained panics = %d", got)
	}
}

// TestPoolCloseRacedWithSubmissions closes the pool while submitters are
// mid-flight and checks every Run still completes all of its slots; under
// -race this also exercises the drain hand-off ordering. Regression test
// for hand-offs enqueued after Close's drain already ran.
func TestPoolCloseRacedWithSubmissions(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		p := NewPool(4)
		const submitters = 8
		var done atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for it := 0; it < 50; it++ {
					var n atomic.Int64
					p.Run(16, func(k int) { n.Add(1) })
					if n.Load() != 16 {
						t.Errorf("run completed %d/16 slots", n.Load())
						return
					}
					done.Add(1)
				}
			}()
		}
		close(start)
		runtime.Gosched()
		time.Sleep(time.Duration(rep%5) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()
		if done.Load() != submitters*50 {
			t.Fatalf("rep %d: %d/%d runs completed", rep, done.Load(), submitters*50)
		}
	}
}

// TestMaxFloat64EmptyRangePanics pins the documented precondition panic.
func TestMaxFloat64EmptyRangePanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("MaxFloat64 n=%d: expected panic", n)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "empty range") {
					t.Fatalf("MaxFloat64 n=%d: panic = %v", n, r)
				}
			}()
			p.MaxFloat64(2, n, func(i int) float64 { return 0 })
		}()
	}
}

// TestSortPairsLengthMismatchPanics pins the documented precondition panic.
func TestSortPairsLengthMismatchPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SortPairs: expected panic on length mismatch")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "length mismatch") {
			t.Fatalf("SortPairs: panic = %v", r)
		}
	}()
	p.SortPairs(2, make([]uint64, 4), make([]uint32, 3), nil, nil)
}

// TestFaultHookObservesSubmissions checks the fault-injection hook fires on
// every submission (including the serial fast path) and on every block of
// a blocked pass, numbers them, and that a hook panic in a slot is
// contained like a slot-body panic.
func TestFaultHookObservesSubmissions(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var submits, slots atomic.Int64
	p.SetFaultHook(&FaultHook{
		Submit: func(seq int64, n int) { submits.Add(1) },
		Slot:   func(seq int64, k int) { slots.Add(1) },
	})
	p.Run(1, func(k int) {})  // serial fast path
	p.Run(16, func(k int) {}) // pooled path
	if submits.Load() != 2 {
		t.Fatalf("Submit hook fired %d times, want 2", submits.Load())
	}
	if slots.Load() != 17 {
		t.Fatalf("Slot hook fired %d times, want 17", slots.Load())
	}
	if p.SubmitCount() != 2 {
		t.Fatalf("SubmitCount = %d, want 2", p.SubmitCount())
	}

	// A blocked pass is one submission whose slots are its blocks; a
	// range below the serial cutoff is one block, run inline on the
	// caller, and no submission at all.
	w := Blocks(8, 50000)
	blockSeen := make([]int32, w)
	p.SetFaultHook(&FaultHook{
		Submit: func(seq int64, n int) {
			if n != w {
				t.Errorf("blocked pass submitted %d slots, want %d", n, w)
			}
		},
		Slot: func(seq int64, k int) { atomic.AddInt32(&blockSeen[k], 1) },
	})
	p.ForBlocks(w, 50000, func(k, lo, hi int) {})
	p.ForBlocks(Blocks(8, serialCutoff-1), serialCutoff-1, func(k, lo, hi int) {})
	for k, c := range blockSeen {
		if c != 1 {
			t.Fatalf("Slot hook saw block %d %d times, want 1", k, c)
		}
	}
	if p.SubmitCount() != 3 {
		t.Fatalf("SubmitCount = %d after one blocked and one inline pass, want 3", p.SubmitCount())
	}

	p.SetFaultHook(&FaultHook{
		Slot: func(seq int64, k int) {
			if k == 3 {
				panic("hook boom")
			}
		},
	})
	pe := recoverPanicError(t, func() { p.Run(8, func(k int) {}) })
	if pe.Value != "hook boom" {
		t.Fatalf("hook panic value = %v", pe.Value)
	}
	p.SetFaultHook(nil)
	var n atomic.Int64
	p.Run(8, func(k int) { n.Add(1) })
	if n.Load() != 8 {
		t.Fatalf("pool not reusable after hook uninstall: %d/8", n.Load())
	}
}
