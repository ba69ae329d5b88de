package mpx_bench

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// perfbenchRow is one row of BENCH_PERFBENCH.json: the end-to-end
// perfbench evidence behind one change, measured as alternating runs of
// the parent commit and the change on one host.
type perfbenchRow struct {
	ParentCommit string  `json:"parent_commit"`
	RunSeconds   float64 `json:"run_seconds"`
	Seeds        []int   `json:"seeds"`
	Host         struct {
		Nproc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPUModel   string `json:"cpu_model"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Workloads map[string]map[string]perfbenchSide `json:"workloads"`
}

// perfbenchSide is one side (parent or change) of one workload: op counts
// summed over its runs, and each end-to-end metric's quartiles across them.
type perfbenchSide struct {
	Runs      int `json:"runs"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
	} `json:"metrics"`
}

var commitHash = regexp.MustCompile(`^[0-9a-f]{40}$`)

// TestBenchPerfbenchJSON checks the committed perfbench evidence: every
// row of BENCH_PERFBENCH.json names its host and its parent commit, and
// covers, on both sides, every workload and every end-to-end metric that
// BENCHMARK.json declares, with ordered quartiles.
func TestBenchPerfbenchJSON(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	readJSONFile(t, "BENCHMARK.json", &spec)
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	var rows []perfbenchRow
	readJSONFile(t, "BENCH_PERFBENCH.json", &rows)
	if len(rows) == 0 {
		t.Fatal("BENCH_PERFBENCH.json has no rows")
	}
	for i, r := range rows {
		if !commitHash.MatchString(r.ParentCommit) {
			t.Fatalf("row %d: parent_commit %q is not a full commit hash", i, r.ParentCommit)
		}
		if r.Host.Nproc <= 0 || r.Host.GOMAXPROCS <= 0 || r.Host.CPUModel == "" || r.Host.GoVersion == "" {
			t.Fatalf("row %d: host %+v is incomplete", i, r.Host)
		}
		if r.RunSeconds <= 0 || len(r.Seeds) == 0 {
			t.Fatalf("row %d: run length %g s over %d seeds", i, r.RunSeconds, len(r.Seeds))
		}
		for _, w := range spec.Workloads {
			sides, ok := r.Workloads[w.Name]
			if !ok {
				t.Fatalf("row %d: no %s workload", i, w.Name)
			}
			for _, name := range []string{"parent", "change"} {
				s, ok := sides[name]
				if !ok {
					t.Fatalf("row %d %s: no %s side", i, w.Name, name)
				}
				if s.Runs <= 0 || s.Attempted <= 0 || s.Failed < 0 || s.Failed > s.Attempted {
					t.Fatalf("row %d %s %s: %d runs, %d attempted, %d failed", i, w.Name, name, s.Runs, s.Attempted, s.Failed)
				}
				for _, m := range spec.EndToEnd {
					q, ok := s.Metrics[m.Name]
					if !ok {
						t.Fatalf("row %d %s %s: no %s", i, w.Name, name, m.Name)
					}
					if !(q.Q1 <= q.Median && q.Median <= q.Q3) {
						t.Fatalf("row %d %s %s %s: quartiles %g, %g, %g out of order", i, w.Name, name, m.Name, q.Q1, q.Median, q.Q3)
					}
				}
			}
		}
	}
}

func readJSONFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
