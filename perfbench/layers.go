package main

import (
	"fmt"
	"maps"
	"net/http"
	"runtime/metrics"
	"slices"
	"time"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// layerMetrics is the per-layer catalog a traced run puts in its JSON
// line, in the units BENCHMARK.json declares: the layer numbers every
// workload measures, on its ops or on its set-up (see README.md). The
// layers only some workloads exercise are printed in the report instead
// (workloadLayerMetrics), so no JSON value is a placeholder.
var layerMetrics = []struct{ name, unit string }{
	{"graph.snapshot_load_ms", "ms"},
	{"parallel.submissions_per_op", "count"},
	{"core.partition_ms", "ms"},
	{"core.rounds", "count"},
	{"core.relaxed_per_edge", "arcs/edge"},
	{"hier.build_ms", "ms"},
	{"hier.levels", "count"},
	{"hier.contract_self_ms", "ms"},
	{"lowstretch.build_ms", "ms"},
	{"lowstretch.index_self_ms", "ms"},
	{"oracle.membership_build_ms", "ms"},
	{"trace.layer_share", "frac"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// workloadLayerMetrics are the layer numbers of layers only some
// workloads run; traced runs print them in the report.
var workloadLayerMetrics = []struct{ name, unit string }{
	{"graph.apply_batch_ms", "ms"},
	{"core.weighted_partition_ms", "ms"},
	{"hier.update_ms", "ms"},
	{"hier.update_cleared_frac", "frac"},
	{"hier.update_rederived", "count"},
	{"hier.update_refreshed", "count"},
	{"hier.update_reused", "count"},
	{"lowstretch.weighted_build_ms", "ms"},
	{"lowstretch.update_self_ms", "ms"},
	{"blocks.build_ms", "ms"},
	{"connectivity.build_ms", "ms"},
	{"oracle.ns_per_query", "ns"},
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.allocs_per_request", "count"},
	{"server.socket_us", "us"},
	{"server.register_ms", "ms"},
	{"server.delete_ms", "ms"},
	{"server.cache_hit_frac", "frac"},
	{"mpxd.cpu_ms_per_op", "ms"},
	{"mpxd.gc_cycles_per_op", "count"},
	{"mpxd.gc_heap_peak_mb", "MB"},
}

// unitOf returns a layer metric's unit.
func unitOf(name string) string {
	for _, lm := range append(layerMetrics, workloadLayerMetrics...) {
		if lm.name == name {
			return lm.unit
		}
	}
	return "count"
}

// fillLayers turns a traced result into the per-layer report: the catalog
// metrics stay for the JSON line, everything else (the workload's own
// layer numbers and the traced end-to-end numbers) moves to the notes.
func fillLayers(r *result) error {
	layered := map[string]metric{}
	for _, lm := range layerMetrics {
		m, ok := r.Metrics[lm.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", lm.name)
		}
		layered[lm.name] = m
	}
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		if _, ok := layered[k]; !ok {
			m := r.Metrics[k]
			r.note("%-34s %14.4f %s", k, m.Value, m.Unit)
		}
	}
	r.Metrics = layered
	return nil
}

// acc collects per-op samples of layer quantities.
type acc map[string][]float64

func (a acc) add(name string, v float64) { a[name] = append(a[name], v) }

func (a acc) addDur(name string, d time.Duration) { a.add(name, ms(d)) }

func (a acc) mean(name string) float64 {
	xs := a[name]
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (a acc) sum(name string) float64 {
	s := 0.0
	for _, x := range a[name] {
		s += x
	}
	return s
}

// report sets metric name (unit) to the mean of the samples of the same
// name, when there are any.
func (a acc) report(r *result, name, unit string) {
	if len(a[name]) > 0 {
		r.set(name, unit, a.mean(name))
	}
}

// reportSelfTimes lists each span name's total self time in the notes.
func reportSelfTimes(r *result, tr *tracer) {
	st := tr.selfTimes()
	for _, k := range slices.Sorted(maps.Keys(st)) {
		r.note("self time %-32s %10.2f ms", k, ms(st[k]))
	}
}

// overhead reports the traced phase's p50 op latency against the
// untraced phase's, over the same op sequence.
func overhead(r *result, untraced, traced []float64) {
	a, b := quantile(untraced, 0.5), quantile(traced, 0.5)
	r.set("trace.overhead_p50_ms", "ms", b-a)
	if a > 0 {
		r.set("trace.overhead_frac", "frac", (b-a)/a)
	}
	r.note("untraced p50 %.3f ms, traced p50 %.3f ms over the same %d ops", a, b, len(traced))
}

// heapAllocs reads the process's cumulative heap allocation count
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerTimer runs layer calls as child spans of one "layers" span and
// accumulates their durations (ms) and pool submissions by name.
type layerTimer struct {
	tr     *tracer
	a      acc
	parent int
	op     int
	pool   *parallel.Pool
}

func (lt *layerTimer) call(name string, fn func()) time.Duration {
	before := lt.pool.SubmitCount()
	d := lt.tr.timed(name, lt.parent, lt.op, fn)
	lt.a.addDur(name+"_ms", d)
	lt.a.add("submissions "+name, float64(lt.pool.SubmitCount()-before))
	return d
}

// hierLayers times hier.BuildHierarchy with lowstretch's config on g, then
// core.Partition re-run on every level's graph with the level's seed. It
// reports the hierarchy's build time and levels, level 0's partition time,
// rounds and relaxed arcs per edge, the contraction self time (build minus
// every level's partition; the hierarchy computes all levels before its
// first visit, so visit timestamps cannot split them), and lowstretch's
// index self time against the lowstretch.build call made just before.
func hierLayers(lt *layerTimer, g *graph.Graph, beta float64, seed uint64) error {
	var levels []*graph.Graph
	var rounds int
	var relaxed int64
	var err error
	hb := lt.call("hier.build", func() {
		_, err = hier.BuildHierarchy(hier.Config{Beta: beta, Seed: seed, Pool: lt.pool, Direction: core.DirectionAuto, NeedEdgeOrig: true},
			g, func(lv *hier.Level) error {
				levels = append(levels, lv.G)
				if lv.Index == 0 {
					rounds, relaxed = lv.D.Rounds, lv.D.Relaxed
				}
				return nil
			})
	})
	if err != nil {
		return err
	}
	a := lt.a
	a.add("hier.levels", float64(len(levels)))
	a.add("core.rounds", float64(rounds))
	a.add("core.relaxed_per_edge", float64(relaxed)/float64(g.NumEdges()))
	var parts time.Duration
	for l, lg := range levels {
		name := "core.partition"
		if l > 0 {
			name = "core.partition_upper"
		}
		d := lt.tr.timed(name, lt.parent, lt.op, func() {
			_, err = core.Partition(lg, beta, core.Options{Seed: xrand.Mix(seed, uint64(l)), Pool: lt.pool, Direction: core.DirectionAuto})
		})
		if err != nil {
			return err
		}
		if l == 0 {
			a.addDur("core.partition_ms", d)
		}
		parts += d
	}
	a.addDur("hier.contract_self_ms", hb-parts)
	a.add("lowstretch.index_self_ms", lastOf(a["lowstretch.build_ms"])-ms(hb))
	return nil
}

// setupLayers measures, three times, the set-up build a workload's
// measured phase depends on: lowstretch.BuildIncrementalPoolCtx on g, the
// membership oracle over it, and hierLayers. These layers move the
// workload's setup_s.
func setupLayers(tr *tracer, a acc, pool *parallel.Pool, g *graph.Graph, beta float64, seed uint64) error {
	for rep := 0; rep < 3; rep++ {
		lid := tr.begin("layers set-up", 0, 0)
		lt := &layerTimer{tr: tr, a: a, parent: lid, pool: pool}
		var inc *lowstretch.Incremental
		var err error
		lt.call("lowstretch.build", func() {
			inc, err = lowstretch.BuildIncrementalPoolCtx(nil, pool, g, beta, seed, 0, core.DirectionAuto)
		})
		if err != nil {
			return err
		}
		lt.call("oracle.membership_build", func() { oracle.NewMembership(inc.Hierarchy(), pool, 0) })
		if err := hierLayers(lt, g, beta, seed); err != nil {
			return err
		}
		tr.end(lid)
	}
	return nil
}

// recorder is a reusable in-memory http.ResponseWriter for driving a
// Server in-process.
type recorder struct {
	h      http.Header
	status int
	body   []byte
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (w *recorder) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.status = 0
	w.body = w.body[:0]
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
