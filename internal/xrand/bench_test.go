package xrand

import "testing"

func BenchmarkSplitMix64(b *testing.B) {
	s := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkMix(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mix(42, uint64(i))
	}
	_ = sink
}

func BenchmarkExpCounterBased(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Exp(7, uint64(i), 0.1)
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := NewSplitMix64(3)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Intn(1000)
	}
	_ = sink
}

func BenchmarkPerm1024(b *testing.B) {
	s := NewSplitMix64(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Perm32(1024)
	}
}
