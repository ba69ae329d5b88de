package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// requestStream concatenates every request a seed's inputs produce: the
// road upload, a few build-miss sessions, the query-mix ring and the
// update-query job.
func requestStream(t *testing.T, seed uint64) []byte {
	t.Helper()
	sz := tinySizes
	var out bytes.Buffer
	road, err := genRoad(sz)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(httpRequest("POST", "/v1/graphs", road.snap))
	for s := 0; s < 3; s++ {
		for _, req := range genBuildPlan(seed, s, sz) {
			out.Write(httpRequest("POST", "/v1/graphs/"+road.fp+"/build", mustJSON(req)))
		}
	}
	build := buildReq{App: "lowstretch", Beta: betaLowstretch, Seed: xrand.Mix(seed, keyQueries)}
	for _, q := range genQueries(seed, road.g.NumVertices(), 3, sz) {
		out.Write(queryBody(build, q))
	}
	g := graph.PreferentialAttachment(sz.paN, sz.paK, paSeed)
	d0, err := core.Partition(g, betaLowstretch, core.Options{Seed: xrand.Mix(paSeed, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := genEdits(seed, g, d0, updatePrefix+3*editBlock, sz.updatePairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&out).Encode(ops); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestRequestStreamDeterministicInSeed(t *testing.T) {
	a, b := requestStream(t, 7), requestStream(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different request streams")
	}
	if c := requestStream(t, 8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same request stream")
	}
}

func TestBuildPlanHoldsTheMix(t *testing.T) {
	counts := map[string]int{}
	seeds := map[uint64]bool{}
	for s := 0; s < 4; s++ {
		for _, req := range genBuildPlan(3, s, fullSizes) {
			counts[req.kind()]++
			if seeds[req.Seed] {
				t.Fatalf("build seed %d repeats: the build would hit the cache", req.Seed)
			}
			seeds[req.Seed] = true
		}
	}
	want := map[string]int{"connectivity": 12, "lowstretch": 16, "lowstretch-weighted": 4, "blocks": 8}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s: %d builds in 4 sessions, want %d", k, counts[k], n)
		}
	}
}

func TestEditStreamModeShares(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 3, 1)
	d0, err := core.Partition(g, betaLowstretch, core.Options{Seed: xrand.Mix(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := genEdits(5, g, d0, updatePrefix+10*editBlock, 8)
	if err != nil {
		t.Fatal(err)
	}
	changes := func(i int) bool { return !d0.UnchangedUnder([]graph.Edge{ops[i].Insert}, nil) }
	for b := updatePrefix; b < len(ops); b += editBlock {
		re := 0
		for i := b; i < b+editBlock; i++ {
			o := ops[i]
			if o.Rederive {
				re++
			}
			if want := ops[i-1].Insert; len(o.Delete) != 1 || o.Delete[0] != want {
				t.Fatalf("op %d deletes %v, want the previous insert %v", i, o.Delete, want)
			}
			if o.Rederive != (changes(i) || changes(i-1)) {
				t.Fatalf("op %d: planned re-derive %v, but its insert fails the level-0 check %v and its delete %v", i, o.Rederive, changes(i), changes(i-1))
			}
		}
		if re != 2*editRederives {
			t.Fatalf("ops %d..%d: %d re-derive, want exactly %d", b, b+editBlock-1, re, 2*editRederives)
		}
	}
}

// TestEditPlanMatchesNaturalStream draws an unfiltered friend-of-friend
// stream on the benchmark's graph and checks that the share of its ops
// that re-derive (insert or delete fails the level-0 check) is the share
// the plan fixes, 2·editRederives in editBlock.
func TestEditPlanMatchesNaturalStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size update-query graph")
	}
	g := graph.PreferentialAttachment(fullSizes.paN, fullSizes.paK, paSeed)
	d0, err := core.Partition(g, betaLowstretch, core.Options{Seed: xrand.Mix(paSeed, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.NewSplitMix64(11)
	const draws = 20000
	var prev graph.Edge
	changedPrev := false
	changed, interUnchanged, rederiveOps := 0, 0, 0
	for i := 0; i < draws; i++ {
		e := fofDraw(rng, g, prev)
		c := !d0.UnchangedUnder([]graph.Edge{e}, nil)
		if c {
			changed++
		} else if d0.Center[e.U] != d0.Center[e.V] {
			interUnchanged++
		}
		if c || changedPrev {
			rederiveOps++
		}
		prev, changedPrev = e, c
	}
	natural := float64(rederiveOps) / draws
	t.Logf("unfiltered stream of %d draws: %.1f%% of inserts fail the level-0 check, %.1f%% are inter-cluster and pass it, %.1f%% of ops re-derive",
		draws, 100*float64(changed)/draws, 100*float64(interUnchanged)/draws, 100*natural)
	if planned := 2.0 * editRederives / editBlock; math.Abs(natural-planned) > 0.02 {
		t.Fatalf("%.1f%% of an unfiltered stream's ops re-derive, the plan fixes %.1f%%", 100*natural, 100*planned)
	}
}

func TestTraceWritesChromeJSONWithParents(t *testing.T) {
	tr := newTracer()
	for op := 1; op <= 3; op++ {
		id := tr.begin("op", 0, op)
		tr.timed("child", id, op, func() { time.Sleep(time.Millisecond) })
		tr.end(id)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, path)
	st := tr.selfTimes()
	if st["op"] < 0 || st["child"] < 3*time.Millisecond {
		t.Fatalf("self times %v", st)
	}
}

// checkTraceFile parses a trace as trace-event JSON and checks that every
// span's parent is present.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s is not trace-event JSON: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	ids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		ids[ev.Args["id"]] = true
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" {
			t.Fatalf("malformed event %+v", ev)
		}
		if p := ev.Args["parent"]; p != 0 && !ids[p] {
			t.Fatalf("span %d (%s) has missing parent %d", ev.Args["id"], ev.Name, p)
		}
	}
}

// TestSmoke builds the benchmark and mpxd, then runs every workload at
// tiny size, timed and traced: each must pass its checks with no failed
// op, and each trace must parse.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs six short benchmark runs")
	}
	dir := t.TempDir()
	bench, mpxd := filepath.Join(dir, "perfbench"), filepath.Join(dir, "mpxd")
	for _, args := range [][]string{{"build", "-o", bench, "."}, {"build", "-o", mpxd, "mpx/cmd/mpxd"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	work := filepath.Join(dir, "work")
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bench, "--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", trace,
				"--size", "tiny", "--mpxd", mpxd, "--work", work)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s\n%s", w, trace, res.Correct, res.Attempted, res.Failed, out, stderr.String())
			}
			want := []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "rss_peak_mb"}
			if trace == "1" {
				want = want[:0]
				for _, lm := range layerMetrics {
					want = append(want, lm.name)
				}
				checkTraceFile(t, filepath.Join(work, "trace-"+w+"-3.json"))
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, k := range want {
				if _, ok := res.Metrics[k]; !ok {
					t.Fatalf("%s trace=%s: metric %s missing", w, trace, k)
				}
			}
		}
	}
}
