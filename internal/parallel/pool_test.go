package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolPrimitivesMatchSerial checks every pool primitive against its
// serial result at worker counts 1, 2 and 8, on sizes straddling the
// serial cutoff.
func TestPoolPrimitivesMatchSerial(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 7, serialCutoff - 1, serialCutoff + 1, 50000} {
		for _, w := range []int{1, 2, 8} {
			hits := make([]int32, n)
			p.For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("For n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}

			var covered int64
			p.ForRange(w, n, func(lo, hi int) { atomic.AddInt64(&covered, int64(hi-lo)) })
			if covered != int64(n) {
				t.Fatalf("ForRange n=%d w=%d covered %d", n, w, covered)
			}

			FillPool(p, w, hits, 7)
			for i, h := range hits {
				if h != 7 {
					t.Fatalf("FillPool n=%d w=%d: hits[%d]=%d", n, w, i, h)
				}
			}

			got := p.ReduceInt64(w, n, func(i int) int64 { return int64(i) })
			if want := int64(n) * int64(n-1) / 2; got != want {
				t.Fatalf("ReduceInt64 n=%d w=%d: got %d want %d", n, w, got, want)
			}

			gotF := p.ReduceFloat64(w, n, func(i int) float64 { return 1 })
			if gotF != float64(n) {
				t.Fatalf("ReduceFloat64 n=%d w=%d: got %g", n, w, gotF)
			}

			if n > 0 {
				max, arg := p.MaxFloat64(w, n, func(i int) float64 { return float64(i % 1024) })
				wantMax := float64((n - 1) % 1024)
				if n > 1024 {
					wantMax = 1023
				}
				if max != wantMax || int(max) != arg%1024 {
					t.Fatalf("MaxFloat64 n=%d w=%d: got (%g,%d)", n, w, max, arg)
				}
			}

			data := make([]int64, n)
			for i := range data {
				data[i] = 1
			}
			if total := p.ExclusiveScan(w, data); total != int64(n) {
				t.Fatalf("ExclusiveScan n=%d w=%d total %d", n, w, total)
			}
			for i, v := range data {
				if v != int64(i) {
					t.Fatalf("ExclusiveScan n=%d w=%d: data[%d]=%d", n, w, i, v)
				}
			}

			packed := p.PackInto(w, n, func(i int) bool { return i%3 == 0 }, nil)
			if want := (n + 2) / 3; len(packed) != want {
				t.Fatalf("PackInto n=%d w=%d: %d elements want %d", n, w, len(packed), want)
			}
			for i, v := range packed {
				if v != uint32(3*i) {
					t.Fatalf("PackInto n=%d w=%d: packed[%d]=%d", n, w, i, v)
				}
			}
		}
	}
}

// TestForBlocksAndScanBlocks checks the blocked submission and the offset
// scan at workers 1, 2 and 8 on sizes straddling the serial cutoff: a
// range below the cutoff is one block, every index lies in exactly one
// block, block k is [k·n/w, (k+1)·n/w), and the offsets are the serial
// prefix sums of the block counts.
func TestForBlocksAndScanBlocks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, serialCutoff - 1, serialCutoff, serialCutoff + 1, 50000} {
		for _, workers := range []int{1, 2, 8} {
			w := Blocks(workers, n)
			if want := Workers(workers, n); (n < serialCutoff && w != 1) || (n >= serialCutoff && w != want) {
				t.Fatalf("Blocks(%d, %d) = %d", workers, n, w)
			}
			hits := make([]int32, n)
			ran := make([]int32, w)
			p.ForBlocks(w, n, func(k, lo, hi int) {
				if lo != k*n/w || hi != (k+1)*n/w {
					t.Errorf("n=%d w=%d: block %d is [%d, %d)", n, w, k, lo, hi)
				}
				atomic.AddInt32(&ran[k], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for k, r := range ran {
				if r != 1 {
					t.Fatalf("n=%d w=%d: block %d ran %d times", n, w, k, r)
				}
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d in %d blocks", n, w, i, h)
				}
			}

			count := func(lo, hi int) int64 {
				var c int64
				for i := lo; i < hi; i++ {
					if i%3 == 0 {
						c++
					}
				}
				return c
			}
			offs := make([]int64, w+1)
			total := p.ScanBlocks(w, n, offs, count)
			var run int64
			for k := 0; k < w; k++ {
				if offs[k] != run {
					t.Fatalf("n=%d w=%d: offs[%d]=%d, want %d", n, w, k, offs[k], run)
				}
				run += count(k*n/w, (k+1)*n/w)
			}
			if offs[w] != run || total != run {
				t.Fatalf("n=%d w=%d: total %d, offs[w]=%d, want %d", n, w, total, offs[w], run)
			}
		}
	}
}

// TestPoolPackIntoReusesBuffer verifies that PackInto reuses a buffer of
// sufficient capacity and still produces the exact filter output.
func TestPoolPackIntoReusesBuffer(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 30000
	buf := make([]uint32, 0, n)
	for iter := 0; iter < 3; iter++ {
		out := p.PackInto(4, n, func(i int) bool { return i%2 == 0 }, buf)
		if len(out) != n/2 {
			t.Fatalf("iter %d: got %d want %d", iter, len(out), n/2)
		}
		if cap(buf) > 0 && &out[0] != &buf[:1][0] {
			t.Fatalf("iter %d: PackInto did not reuse the buffer", iter)
		}
		buf = out[:0]
	}
}

// TestPoolConcat checks scan-based concatenation against a serial append,
// including buffer reuse.
func TestPoolConcat(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	bufs := make([][]uint32, 7)
	next := uint32(0)
	for k := range bufs {
		for j := 0; j < 1000*k; j++ {
			bufs[k] = append(bufs[k], next)
			next++
		}
	}
	dst := p.Concat(8, nil, bufs)
	if len(dst) != int(next) {
		t.Fatalf("got %d elements want %d", len(dst), next)
	}
	for i, v := range dst {
		if v != uint32(i) {
			t.Fatalf("dst[%d]=%d", i, v)
		}
	}
	// Reuse: concatenating into the same backing array must not allocate a
	// new one.
	dst2 := p.Concat(8, dst[:0], bufs)
	if &dst2[0] != &dst[0] {
		t.Error("Concat did not reuse dst's backing array")
	}
}

// TestGrowUint32 checks both branches: a buffer with enough capacity is
// resliced in place, and a short one is reallocated with its prefix kept.
func TestGrowUint32(t *testing.T) {
	buf := make([]uint32, 2, 8)
	buf[0], buf[1] = 4, 5
	if got := GrowUint32(buf, 6); len(got) != 6 || &got[0] != &buf[0] {
		t.Fatalf("in-capacity grow: len %d, reused %v", len(got), &got[0] == &buf[0])
	}
	got := GrowUint32(buf, 20)
	if len(got) != 20 || &got[0] == &buf[0] || got[0] != 4 || got[1] != 5 {
		t.Fatalf("reallocating grow: len %d, prefix %v", len(got), got[:2])
	}
}

// TestPoolReuseAcrossRuns runs many consecutive loops on one pool and
// checks the persistent workers neither leak nor die: goroutine count
// stays flat and results stay exact.
func TestPoolReuseAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Warm up so the workers exist before the baseline count.
	p.For(4, 10000, func(int) {})
	base := runtime.NumGoroutine()
	for iter := 0; iter < 200; iter++ {
		got := p.ReduceInt64(4, 10000, func(i int) int64 { return 1 })
		if got != 10000 {
			t.Fatalf("iter %d: got %d", iter, got)
		}
	}
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Errorf("goroutines grew from %d to %d across 200 runs", base, g)
	}
}

// TestPoolNestedAndConcurrentSubmission stresses the scheduler shape the
// round loops produce: multiple goroutines submitting concurrently, with
// loop bodies that themselves submit nested loops to the same pool. Run
// under -race in CI.
func TestPoolNestedAndConcurrentSubmission(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 12000
	want := int64(n) * int64(n-1) / 2
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				var total int64
				p.ForRange(3, n, func(lo, hi int) {
					// Nested submission from inside a running slot; the
					// inner range is large enough to take the parallel path.
					s := p.ReduceInt64(2, hi-lo, func(i int) int64 { return int64(lo + i) })
					atomic.AddInt64(&total, s)
				})
				if total != want {
					t.Errorf("nested sum: got %d want %d", total, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolClosedStillCompletes verifies primitives stay correct after
// Close: the submitter drains every slot itself.
func TestPoolClosedStillCompletes(t *testing.T) {
	p := NewPool(2)
	p.Close()
	// Give the workers a moment to exit so the test exercises the
	// no-helpers path deterministically.
	time.Sleep(10 * time.Millisecond)
	for iter := 0; iter < 10; iter++ {
		got := p.ReduceInt64(4, 10000, func(i int) int64 { return int64(i) })
		if want := int64(10000) * 9999 / 2; got != want {
			t.Fatalf("closed pool: got %d want %d", got, want)
		}
	}
}

// TestPoolNilReceiverUsesDefault checks the nil-pool convention every
// Options plumbing relies on.
func TestPoolNilReceiverUsesDefault(t *testing.T) {
	var p *Pool
	got := p.ReduceInt64(4, 5000, func(i int) int64 { return 2 })
	if got != 10000 {
		t.Fatalf("nil pool: got %d", got)
	}
}

// TestPoolDeterministicResults verifies the slot decomposition (not the
// physical scheduling) fixes results: repeated runs at each worker count
// produce bit-identical outputs for order-sensitive primitives.
func TestPoolDeterministicResults(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 40000
	for _, w := range []int{1, 2, 8} {
		var first []uint32
		for rep := 0; rep < 5; rep++ {
			got := p.PackInto(w, n, func(i int) bool { return i%7 == 3 }, nil)
			if rep == 0 {
				first = got
				continue
			}
			if len(got) != len(first) {
				t.Fatalf("w=%d rep=%d: length %d vs %d", w, rep, len(got), len(first))
			}
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("w=%d rep=%d: element %d differs", w, rep, i)
				}
			}
		}
	}
}
