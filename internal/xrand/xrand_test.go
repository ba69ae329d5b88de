package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the published SplitMix64 algorithm, seed 0.
	s := NewSplitMix64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("value %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestMixDistinctKeys(t *testing.T) {
	seen := make(map[uint64]uint64)
	for k := uint64(0); k < 10000; k++ {
		v := Mix(1, k)
		if prev, dup := seen[v]; dup {
			t.Fatalf("collision: keys %d and %d both map to %#x", prev, k, v)
		}
		seen[v] = k
	}
}

func TestFloat64InRange(t *testing.T) {
	s := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestUniform01Properties(t *testing.T) {
	f := func(seed, key uint64) bool {
		u := Uniform01(seed, key)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := NewSplitMix64(3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %g", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSplitMix64(0).Intn(0)
}

func TestExpMeanAndPositivity(t *testing.T) {
	const n = 200000
	rate := 0.25
	var sum float64
	for k := uint64(0); k < n; k++ {
		x := Exp(9, k, rate)
		if x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("bad exponential draw: %g", x)
		}
		sum += x
	}
	mean := sum / n
	want := 1 / rate
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean %g, want ~%g", mean, want)
	}
}

func TestExpMemorylessTail(t *testing.T) {
	// P[X > t] = exp(-rate t): check the empirical tail at a few points.
	const n = 100000
	rate := 1.0
	for _, tail := range []float64{0.5, 1, 2} {
		count := 0
		for k := uint64(0); k < n; k++ {
			if Exp(123, k, rate) > tail {
				count++
			}
		}
		want := math.Exp(-rate * tail)
		got := float64(count) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("tail %g: got %g want %g", tail, got, want)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Exp(0, 0, 0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSplitMix64(11)
	for _, n := range []int{0, 1, 2, 17, 1000} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPerm32IsPermutation(t *testing.T) {
	s := NewSplitMix64(13)
	p := s.Perm32(500)
	seen := make([]bool, 500)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in Perm32")
		}
		seen[v] = true
	}
}

func TestPermUnbiasedFirstElement(t *testing.T) {
	const n, draws = 5, 50000
	counts := make([]int, n)
	s := NewSplitMix64(17)
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("position 0 value %d: count %d too far from %g", i, c, want)
		}
	}
}

func TestMix2IndependentStreams(t *testing.T) {
	// Draws for the same vertex under different stream ids must differ.
	equal := 0
	for v := uint64(0); v < 1000; v++ {
		if Mix2(7, v, 0) == Mix2(7, v, 1) {
			equal++
		}
	}
	if equal > 0 {
		t.Errorf("%d collisions between stream 0 and 1", equal)
	}
}

func TestBoundedUint64Unbiased(t *testing.T) {
	// n = 3 forces the rejection path frequently enough to exercise it.
	s := NewSplitMix64(21)
	counts := make([]int, 3)
	const draws = 90000
	for i := 0; i < draws; i++ {
		counts[s.Intn(3)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-draws/3) > 6*math.Sqrt(draws/3) {
			t.Errorf("bucket %d: count %d biased", b, c)
		}
	}
}
