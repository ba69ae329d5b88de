package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkersNormalization(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Errorf("Workers(0,100)=%d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("Workers(8,3)=%d, want 3", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Errorf("Workers(-1,0)=%d, want 1", w)
	}
	if w := Workers(4, 100); w != 4 {
		t.Errorf("Workers(4,100)=%d, want 4", w)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		for _, w := range []int{1, 2, 7} {
			hits := make([]int32, n)
			Default().For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForRangeBlocksPartition(t *testing.T) {
	n := 10000
	var total int64
	Default().ForRange(4, n, func(lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Errorf("blocks cover %d of %d", total, n)
	}
}

func TestReduceInt64MatchesSerial(t *testing.T) {
	f := func(vals []int64) bool {
		var want int64
		for _, v := range vals {
			want += v
		}
		got := Default().ReduceInt64(3, len(vals), func(i int) int64 { return vals[i] })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReduceFloat64Small(t *testing.T) {
	var p *Pool
	got := p.ReduceFloat64(2, 4, func(i int) float64 { return float64(i) })
	if got != 6 {
		t.Errorf("got %g want 6", got)
	}
}

func TestReduceLargeParallelPath(t *testing.T) {
	n := 100000
	got := Default().ReduceInt64(8, n, func(i int) int64 { return int64(i) })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Errorf("got %d want %d", got, want)
	}
}

func TestMaxFloat64(t *testing.T) {
	vals := []float64{3, 1, 9, 2, 9, 4}
	max, arg := Default().MaxFloat64(2, len(vals), func(i int) float64 { return vals[i] })
	if max != 9 || arg != 2 {
		t.Errorf("got (%g,%d), want (9,2)", max, arg)
	}
}

func TestMaxFloat64LargeParallel(t *testing.T) {
	n := 50000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64((i * 7919) % n)
	}
	max, arg := Default().MaxFloat64(4, n, func(i int) float64 { return vals[i] })
	if max != float64(n-1) {
		t.Errorf("max=%g want %d", max, n-1)
	}
	if vals[arg] != max {
		t.Errorf("argmax inconsistent")
	}
}

func TestMaxFloat64PanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default().MaxFloat64(1, 0, func(int) float64 { return 0 })
}

func TestExclusiveScanMatchesSerial(t *testing.T) {
	f := func(vals []int64) bool {
		a := make([]int64, len(vals))
		copy(a, vals)
		b := make([]int64, len(vals))
		copy(b, vals)
		var run int64
		for i := range a {
			v := a[i]
			a[i] = run
			run += v
		}
		total := Default().ExclusiveScan(4, b)
		if total != run {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExclusiveScanLarge(t *testing.T) {
	n := 100000
	data := make([]int64, n)
	for i := range data {
		data[i] = 1
	}
	total := Default().ExclusiveScan(8, data)
	if total != int64(n) {
		t.Errorf("total %d want %d", total, n)
	}
	for i, v := range data {
		if v != int64(i) {
			t.Fatalf("data[%d]=%d want %d", i, v, i)
		}
	}
}

func TestPackMatchesSerialFilter(t *testing.T) {
	for _, n := range []int{0, 1, 999, 50000} {
		keep := func(i int) bool { return i%3 == 0 }
		got := Default().PackInto(4, n, keep, nil)
		var want []uint32
		for i := 0; i < n; i++ {
			if keep(i) {
				want = append(want, uint32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d elements, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d: got %d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestFill(t *testing.T) {
	data := make([]int32, 30000)
	FillPool(nil, 4, data, int32(-7))
	for i, v := range data {
		if v != -7 {
			t.Fatalf("data[%d]=%d", i, v)
		}
	}
}
