package mpx_bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
)

// e24Files materializes the E24 workload once per process: a ~1M-edge
// GNM graph written both as DIMACS text and as a binary CSR snapshot,
// in a temp directory cleaned up by the test framework.
var e24 struct {
	dimacs, snap string
	fingerprint  uint64
}

func e24Setup(b *testing.B) (dimacsPath, snapPath string) {
	b.Helper()
	if e24.dimacs != "" {
		return e24.dimacs, e24.snap
	}
	g := graph.GNM(200000, 1000000, 24)
	dir, err := os.MkdirTemp("", "mpx-e24-")
	if err != nil {
		b.Fatal(err)
	}
	// The process owns the dir for its lifetime; benchmarks share it.
	dimacsPath = filepath.Join(dir, "g.col")
	f, err := os.Create(dimacsPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteDIMACS(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	snapPath = filepath.Join(dir, "g.mpxsnap")
	if err := snapshot.WriteFile(snapPath, g, nil); err != nil {
		b.Fatal(err)
	}
	e24.dimacs, e24.snap, e24.fingerprint = dimacsPath, snapPath, g.Fingerprint()
	return dimacsPath, snapPath
}

// BenchmarkE24SnapshotLoad is the snapshot-store experiment: loading a
// ~1M-edge graph from the binary CSR snapshot (memory-mapped, zero-copy)
// versus parsing the same graph from DIMACS text. It verifies both paths
// produce the identical graph (fingerprint) and fails unless the snapshot
// load is ≥10× faster wall-clock; the measured speedup is reported as a
// metric and lands in BENCH_E24.json via the JSON harness.
func BenchmarkE24SnapshotLoad(b *testing.B) {
	dimacsPath, snapPath := e24Setup(b)

	// Explicit wall-clock gate, independent of b.N, like E23: the best of
	// a few trials per arm so a cold page cache or a GC pause on one trial
	// doesn't decide the verdict.
	const trials = 3
	best := func(f func() error) time.Duration {
		b.Helper()
		bestD := time.Duration(1<<63 - 1)
		for t := 0; t < trials; t++ {
			start := time.Now()
			if err := f(); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	loadTime := best(func() error {
		s, err := snapshot.Load(snapPath)
		if err != nil {
			return err
		}
		if s.Fingerprint() != e24.fingerprint {
			b.Fatalf("snapshot fingerprint %016x, want %016x", s.Fingerprint(), e24.fingerprint)
		}
		return s.Close()
	})
	parseTime := best(func() error {
		o, err := snapshot.OpenAny(dimacsPath)
		if err != nil {
			return err
		}
		if o.Graph.Fingerprint() != e24.fingerprint {
			b.Fatalf("parsed fingerprint %016x, want %016x", o.Graph.Fingerprint(), e24.fingerprint)
		}
		return o.Close()
	})
	speedup := float64(parseTime) / float64(loadTime)
	if speedup < 10 {
		b.Fatalf("snapshot load is only %.2fx faster than text parse (load %v, parse %v); want >= 10x",
			speedup, loadTime, parseTime)
	}

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := snapshot.Load(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// ResetTimer wipes user metrics, so report after the timed loop.
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(parseTime.Nanoseconds()), "parse-ns")
	b.ReportMetric(float64(loadTime.Nanoseconds()), "load-ns")
}

// BenchmarkE24TextParseBaseline is the comparison arm: the same graph
// parsed from DIMACS text through the same OpenAny entry point the CLI
// uses.
func BenchmarkE24TextParseBaseline(b *testing.B) {
	dimacsPath, _ := e24Setup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, err := snapshot.OpenAny(dimacsPath)
		if err != nil {
			b.Fatal(err)
		}
		if o.Graph.Fingerprint() != e24.fingerprint {
			b.Fatal("parsed graph fingerprint changed")
		}
		if err := o.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
