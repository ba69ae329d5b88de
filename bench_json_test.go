package mpx_bench

import (
	"encoding/json"
	"os"
	"testing"
)

// benchRecord is one benchmark result serialized for artifact upload: the
// standard counters plus every user-reported metric (alloc gates, E23
// speedup, hierarchy depths).
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func recordOf(name string, fn func(*testing.B)) benchRecord {
	r := testing.Benchmark(fn)
	return benchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Metrics:     r.Extra,
	}
}

func writeBenchJSON(t *testing.T, path string, records []benchRecord) {
	t.Helper()
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", path, len(records))
}

// TestWriteBenchJSON materializes the machine-readable benchmark
// artifacts: BENCH_E22.json (the per-level allocation gates for the
// unweighted and weighted hierarchy engines), BENCH_E23.json (the
// incremental-update-vs-rebuild experiment and the cleared-update bytes
// gate), BENCH_E24.json (the snapshot-load-vs-text-parse experiment), and
// BENCH_E25.json (the zero-alloc batched query-serving experiment:
// queries/sec, allocs/query, p50/p99 latency). Gated behind MPX_BENCH_JSON so ordinary test runs
// stay fast; CI sets it and uploads the files. Each wrapped benchmark
// keeps its own hard gate (alloc ceilings, the ≥3× and ≥10× speedup
// floors, the 0-allocs/query serving gate), so a regression fails this
// test rather than just shifting a number in the artifact.
func TestWriteBenchJSON(t *testing.T) {
	if os.Getenv("MPX_BENCH_JSON") == "" {
		t.Skip("set MPX_BENCH_JSON=1 to run the gate benchmarks and write BENCH_E22.json / BENCH_E23.json / BENCH_E24.json / BENCH_E25.json")
	}
	writeBenchJSON(t, "BENCH_E22.json", []benchRecord{
		recordOf("E22HierarchyAllocGate", BenchmarkE22HierarchyAllocGate),
		recordOf("E22WeightedHierarchyAllocGate", BenchmarkE22WeightedHierarchyAllocGate),
	})
	writeBenchJSON(t, "BENCH_E23.json", []benchRecord{
		recordOf("E23IncrementalUpdate", BenchmarkE23IncrementalUpdate),
		recordOf("E23RebuildBaseline", BenchmarkE23RebuildBaseline),
		recordOf("E23ClearedUpdate", BenchmarkE23ClearedUpdate),
	})
	writeBenchJSON(t, "BENCH_E24.json", []benchRecord{
		recordOf("E24SnapshotLoad", BenchmarkE24SnapshotLoad),
		recordOf("E24TextParseBaseline", BenchmarkE24TextParseBaseline),
	})
	writeBenchJSON(t, "BENCH_E25.json", []benchRecord{
		recordOf("E25QueryThroughput", BenchmarkE25QueryThroughput),
		recordOf("E25QueryLatency", BenchmarkE25QueryLatency),
	})
}
