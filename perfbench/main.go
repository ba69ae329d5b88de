// Command perfbench is the repository's benchmark: it drives the real
// mpxd daemon over loopback TCP and the incremental library in-process,
// and prints end-to-end metrics (timed runs) or per-layer metrics (traced
// runs) for one workload. See README.md for the workloads, the metrics and
// how to run it; run.sh builds it and mpxd from source first.
//
//	perfbench --workload build-miss --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// env is one invocation's configuration.
type env struct {
	sz      sizes
	seed    uint64
	seconds time.Duration
	trace   bool
	mpxd    string // mpxd binary
	self    string // this binary (re-executed as the update-query worker)
	work    string // scratch dir for snapshots and traces
	tmp     string // TMPDIR of the daemons: their upload spools
	root    string // checkout root (provenance)
}

var workloads = []string{"build-miss", "query-mix", "update-query"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "build-miss | query-mix | update-query | all")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "length of the measured phase")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		mpxd     = fs.String("mpxd", ".bench_build/mpxd", "mpxd binary to start")
		work     = fs.String("work", ".bench_build/work", "scratch directory")
		size     = fs.String("size", "full", "input sizes: full | tiny (smoke tests)")
		worker   = fs.Bool("worker", false, "internal: run as the update-query process under test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, mpxd: *mpxd, work: *work}
	switch *size {
	case "full":
		e.sz = fullSizes
	case "tiny":
		e.sz = tinySizes
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -size %q\n", *size)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if e.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var err error
	if e.self, err = os.Executable(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.root, err = os.Getwd(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *worker {
		if err := updateWorker(e, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (valid: %s, all)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	e.tmp = filepath.Join(e.work, "tmp")
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	h := hostInfo(e.root)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		r, err := runOne(e, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printResult(e, h, r)
		final.Correct = final.Correct && r.Tally.Failed == 0
		final.Attempted += r.Tally.Attempted
		final.Failed += r.Tally.Failed
		for k, m := range r.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	fmt.Println(string(mustJSON(final)))
	return 0
}

func runOne(e env, name string) (*result, error) {
	var r *result
	var err error
	switch name {
	case "build-miss":
		r, err = runBuildMiss(e)
	case "query-mix":
		r, err = runQueryMix(e)
	case "update-query":
		r, err = runUpdateQuery(e)
	}
	if err != nil {
		return nil, err
	}
	r.Workload = name
	if e.trace {
		if err := fillLayers(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// printResult writes the human-readable report: provenance, metrics by
// name with units, failure accounting and notes.
func printResult(e env, h host, r *result) {
	mode := "timed"
	if e.trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s run, seed %d, %s measured)\n", r.Workload, mode, e.seed, e.seconds)
	fmt.Printf("host: %s\n", mustJSON(h))
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[k]
		fmt.Printf("  %-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("ops: %s samples=%d\n", mustJSON(r.Tally), r.Samples)
	for _, n := range r.Notes {
		fmt.Println("  " + n)
	}
	if r.Trace != "" {
		fmt.Println("trace:", r.Trace)
	}
}

// tracePath is where a traced run writes its spans.
func tracePath(e env, workload string) string {
	return filepath.Join(e.work, fmt.Sprintf("trace-%s-%d.json", workload, e.seed))
}
