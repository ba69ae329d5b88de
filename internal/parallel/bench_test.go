package parallel

import "testing"

const benchN = 1 << 20

func BenchmarkForWorkers1(b *testing.B)  { benchFor(b, 1) }
func BenchmarkForWorkers4(b *testing.B)  { benchFor(b, 4) }
func BenchmarkForWorkers16(b *testing.B) { benchFor(b, 16) }

func benchFor(b *testing.B, workers int) {
	data := make([]int64, benchN)
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		Default().ForRange(workers, benchN, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

func BenchmarkReduceInt64(b *testing.B) {
	data := make([]int64, benchN)
	for i := range data {
		data[i] = int64(i)
	}
	b.SetBytes(benchN * 8)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = Default().ReduceInt64(4, benchN, func(j int) int64 { return data[j] })
	}
	_ = sink
}

func BenchmarkExclusiveScan(b *testing.B) {
	data := make([]int64, benchN)
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		for j := range data {
			data[j] = 1
		}
		Default().ExclusiveScan(4, data)
	}
}

func BenchmarkPack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Default().PackInto(4, benchN, func(j int) bool { return j%3 == 0 }, nil)
	}
}
