package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpx/internal/core"
	"mpx/internal/graph/snapshot"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// bmState is one build-miss run: the road graph, the daemon under test,
// and everything recorded while driving it.
type bmState struct {
	e      env
	road   *roadInput
	pool   *parallel.Pool // in-process library builds (checks, layers)
	regReq []byte
	delReq []byte

	d   *daemon
	c   *conn
	buf []byte

	t      tally
	lat    []float64
	kinds  map[string][]float64
	wall   time.Duration
	regLat []float64
	delLat []float64
	rss    []float64     // per-session peak RSS of the daemon, MB
	served []servedBuild // bodies awaiting the in-process check
}

type servedBuild struct {
	req  buildReq
	body []byte
}

// warmSession numbers the warm-up session of set-up k, away from the
// measured sessions' numbers.
func warmSession(k int) int { return 1<<20 + k }

func runBuildMiss(e env) (*result, error) {
	road, err := genRoad(e.sz)
	if err != nil {
		return nil, err
	}
	bm := &bmState{
		e: e, road: road, pool: parallel.NewPool(0),
		regReq: httpRequest("POST", "/v1/graphs", road.snap),
		delReq: httpRequest("DELETE", "/v1/graphs/"+road.fp, nil),
		kinds:  map[string][]float64{},
	}
	defer bm.pool.Close()
	defer bm.shutdown()

	// Set-ups are spread around the measured phase, so their median spans
	// the run rather than its first seconds; the last one before the
	// measured phase keeps its daemon for it.
	var setups []float64
	setupRange := func(from, to int) error { return timeSetups(&setups, from, to, bm.shutdown, bm.setup) }
	if err := setupRange(0, setupsBefore); err != nil {
		return nil, err
	}

	r := &result{}
	steal := startSteal()
	if e.trace {
		if err := bm.traced(r); err != nil {
			return nil, err
		}
	} else {
		for s := 0; bm.wall < e.seconds; s++ {
			if err := bm.session(s, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	r.note("%s", steal)
	if err := setupRange(setupsBefore, e.sz.setups); err != nil {
		return nil, err
	}
	if err := bm.shutdown(); err != nil {
		return nil, fmt.Errorf("mpxd exit: %w", err)
	}
	if !e.trace {
		// Check every served body against an in-process build of the same
		// request, after the clock stopped and the daemon exited.
		for _, sb := range bm.served {
			if err := bm.check(sb.req, sb.body, nil); err != nil {
				return nil, err
			}
		}
	}
	r.Tally = bm.t
	r.endToEnd(setups, bm.lat, bm.wall, median(bm.rss))
	r.note("peak RSS per session: median %.1f MB, max %.1f MB", median(bm.rss), quantile(bm.rss, 1))
	for _, k := range []string{"connectivity", "lowstretch", "lowstretch-weighted", "blocks"} {
		if xs := bm.kinds[k]; len(xs) > 0 {
			r.note("mode %-20s n=%4d p50=%8.2f ms", k, len(xs), quantile(xs, 0.5))
		}
	}
	r.note("sessions of %d builds; register p50 %.2f ms, delete p50 %.2f ms", e.sz.sessionBuilds, quantile(bm.regLat, 0.5), quantile(bm.delLat, 0.5))
	var sess []string
	for i := 0; i+e.sz.sessionBuilds <= len(bm.lat); i += e.sz.sessionBuilds {
		sess = append(sess, fmt.Sprintf("%.0f", median(bm.lat[i:i+e.sz.sessionBuilds])))
	}
	r.note("per-session median build ms: %v", sess)
	return r, nil
}

// shutdown stops the daemon, if one runs.
func (bm *bmState) shutdown() error {
	if bm.d == nil {
		return nil
	}
	bm.c.close()
	err := bm.d.stop()
	bm.d, bm.c = nil, nil
	return err
}

// setup starts a daemon and runs one warm-up session: register, one build
// of each kind, DELETE.
func (bm *bmState) setup(k int) error {
	d, err := startDaemon(bm.e.mpxd, bm.e.tmp, bm.e.trace)
	if err != nil {
		return err
	}
	bm.d = d
	if bm.c, err = dial(d.addr); err != nil {
		return err
	}
	if _, err := bm.register(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, req := range genBuildPlan(bm.e.seed, warmSession(k), bm.e.sz) {
		if seen[req.kind()] {
			continue
		}
		seen[req.kind()] = true
		var rep reply
		rep, bm.buf, err = bm.c.do(httpRequest("POST", "/v1/graphs/"+bm.road.fp+"/build", mustJSON(req)), bm.buf)
		if err != nil {
			return err
		}
		if rep.Status != 200 {
			return fmt.Errorf("warm-up %s build: status %d: %s", req.kind(), rep.Status, rep.Body)
		}
	}
	_, err = bm.evict()
	return err
}

// register uploads the snapshot and returns how long it took.
func (bm *bmState) register() (time.Duration, error) {
	t0 := time.Now()
	rep, buf, err := bm.c.do(bm.regReq, bm.buf)
	dt := time.Since(t0)
	bm.buf = buf
	if err != nil {
		return 0, fmt.Errorf("register: %w", err)
	}
	if rep.Status != 201 || !bytes.Contains(rep.Body, []byte(`"fingerprint":"`+bm.road.fp+`"`)) {
		return 0, fmt.Errorf("register: status %d: %s", rep.Status, rep.Body)
	}
	return dt, nil
}

// evict DELETEs the graph and returns how long it took.
func (bm *bmState) evict() (time.Duration, error) {
	t0 := time.Now()
	rep, buf, err := bm.c.do(bm.delReq, bm.buf)
	dt := time.Since(t0)
	bm.buf = buf
	if err != nil {
		return 0, fmt.Errorf("delete: %w", err)
	}
	if rep.Status != 200 {
		return 0, fmt.Errorf("delete: status %d: %s", rep.Status, rep.Body)
	}
	return dt, nil
}

// session runs measured session s: register, the session's builds (each
// one op, timed alone), their cache-hit replays with the clock stopped,
// then DELETE. With a tracer, each build is an "op" span followed by the
// layer calls on its inputs.
func (bm *bmState) session(s int, tr *tracer, a acc) error {
	plan := genBuildPlan(bm.e.seed, s, bm.e.sz)
	reqs := make([][]byte, len(plan))
	for i, req := range plan {
		reqs[i] = httpRequest("POST", "/v1/graphs/"+bm.road.fp+"/build", mustJSON(req))
	}
	// Each session's peak is measured alone: reset the daemon's high-water
	// mark, read it before the DELETE frees the retained builds.
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", bm.d.pid()), []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	dt, err := bm.register()
	if err != nil {
		return err
	}
	bm.wall += dt
	bm.regLat = append(bm.regLat, ms(dt))
	first := len(bm.served)
	for i, req := range plan {
		opID := s*len(plan) + i + 1
		var span int
		if tr != nil {
			span = tr.begin("op "+req.kind(), 0, opID)
		}
		t0 := time.Now()
		rep, buf, err := bm.c.do(reqs[i], bm.buf)
		dt := time.Since(t0)
		if tr != nil {
			tr.end(span)
		}
		bm.buf = buf
		bm.t.Attempted++
		bm.wall += dt
		if err != nil {
			bm.t.transportFailure()
			return fmt.Errorf("build: %w", err)
		}
		if rep.Status != 200 {
			bm.t.httpFailure(rep.Status, rep.Body)
			continue
		}
		bm.lat = append(bm.lat, ms(dt))
		bm.kinds[req.kind()] = append(bm.kinds[req.kind()], ms(dt))
		if rep.Cache == "hit" {
			bm.t.CacheHit++
			bm.t.mismatch("%s seed %d: fresh-seed build hit the cache", req.kind(), req.Seed)
		} else {
			bm.t.CacheMiss++
		}
		bm.served = append(bm.served, servedBuild{req: req, body: append([]byte(nil), rep.Body...)})
		if tr != nil {
			lid := tr.begin("layers "+req.kind(), 0, opID)
			if err := bm.layers(tr, a, lid, opID, req, bm.served[len(bm.served)-1].body); err != nil {
				return err
			}
			tr.end(lid)
			a.add("op_ms", ms(dt))
		}
	}
	rss, err := procStatusMB(bm.d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	bm.rss = append(bm.rss, rss)
	// Replays, untimed: each must hit the cache with identical bytes.
	for _, sb := range bm.served[first:] {
		rep, buf, err := bm.c.do(httpRequest("POST", "/v1/graphs/"+bm.road.fp+"/build", mustJSON(sb.req)), bm.buf)
		bm.buf = buf
		switch {
		case err != nil:
			return fmt.Errorf("replay: %w", err)
		case rep.Status != 200 || rep.Cache != "hit" || !bytes.Equal(rep.Body, sb.body):
			bm.t.mismatch("%s seed %d: cache-hit replay differs (status %d, cache %q)", sb.req.kind(), sb.req.Seed, rep.Status, rep.Cache)
		}
	}
	if dt, err = bm.evict(); err != nil {
		return err
	}
	bm.wall += dt
	bm.delLat = append(bm.delLat, ms(dt))
	return nil
}

// check compares a served body against an in-process build of the same
// request; with a tracer it also times the app entry point and oracle
// construction as spans under parent.
func (bm *bmState) check(req buildReq, body []byte, lt *layerTimer) error {
	var lib *libBuild
	var err error
	build := func() { lib, err = buildLib(bm.pool, bm.road.g, bm.road.wg, req) }
	if lt != nil {
		lt.call(appMetric(req), build)
	} else {
		build()
	}
	if err != nil {
		return err
	}
	if lib.inc != nil {
		mk := func() { lib.member = oracle.NewMembership(lib.inc.Hierarchy(), bm.pool, 0) }
		if lt != nil {
			lt.call("oracle.membership_build", mk)
		} else {
			mk()
		}
	}
	if err := checkBuildBody(body, lib.response(bm.road.fp, req)); err != nil {
		bm.t.mismatch("%v", err)
	}
	return nil
}

// appMetric names the app entry point's span and metric stem.
func appMetric(req buildReq) string {
	if req.Weighted {
		return "lowstretch.weighted_build"
	}
	return req.App + ".build"
}

// layers runs the per-layer calls on one build op's inputs.
func (bm *bmState) layers(tr *tracer, a acc, parent, op int, req buildReq, body []byte) error {
	lt := &layerTimer{tr: tr, a: a, parent: parent, op: op, pool: bm.pool}
	if err := bm.check(req, body, lt); err != nil {
		return err
	}
	// Pool submissions of the app entry point, the call mpxd makes.
	a.add("parallel.submissions_per_op", lastOf(a["submissions "+appMetric(req)]))
	seed0 := xrand.Mix(req.Seed, 0)
	switch {
	case req.Weighted:
		wg := bm.road.wg
		wmin, _ := hier.WeightRangeOnPool(bm.pool, 0, wg)
		beta0 := clampBeta(req.Beta / wmin)
		var err error
		lt.call("core.weighted_partition", func() {
			_, err = core.PartitionWeightedParallel(wg, beta0, 1/beta0, core.Options{Seed: seed0, Pool: bm.pool, Direction: core.DirectionAuto})
		})
		return err
	case req.App == "lowstretch":
		return hierLayers(lt, bm.road.g, req.Beta, req.Seed)
	}
	return nil
}

func lastOf(xs []float64) float64 { return xs[len(xs)-1] }

// clampBeta mirrors the weighted lowstretch schedule's clamp of β into
// (0, 1).
func clampBeta(b float64) float64 {
	const lo, hi = 1e-12, 0.95
	return min(max(b, lo), hi)
}

// traced replays the build-miss sequence twice on one daemon: first
// untraced for a quarter of the budget, then the same sessions traced,
// each build followed by its layer calls.
func (bm *bmState) traced(r *result) error {
	bm.pool.SetFaultHook(&parallel.FaultHook{}) // count submissions
	a := acc{}
	snap := filepath.Join(bm.e.work, fmt.Sprintf("road-%d.mpxsnap", bm.e.seed))
	if err := os.WriteFile(snap, bm.road.snap, 0o644); err != nil {
		return err
	}
	defer os.Remove(snap)
	if err := snapshotLoad(a, snap); err != nil {
		return err
	}

	cpu0, err := procCPU(bm.d.pid())
	if err != nil {
		return err
	}
	gc0, _ := bm.d.gcStats()
	sessions := 0
	for bm.wall < bm.e.seconds/4 || sessions == 0 {
		if err := bm.session(sessions, nil, nil); err != nil {
			return err
		}
		sessions++
	}
	cpu1, err := procCPU(bm.d.pid())
	if err != nil {
		return err
	}
	gc1, heapMax := bm.d.gcStats()
	untraced := append([]float64(nil), bm.lat...)
	ops := float64(len(untraced))
	r.set("mpxd.cpu_ms_per_op", "ms", ms(cpu1-cpu0)/ops)
	r.set("mpxd.gc_cycles_per_op", "count", float64(gc1-gc0)/ops)
	r.set("mpxd.gc_heap_peak_mb", "MB", heapMax)
	r.set("server.register_ms", "ms", median(bm.regLat))
	r.set("server.delete_ms", "ms", median(bm.delLat))

	tr := newTracer()
	bm.lat, bm.wall = nil, 0
	for s := 0; s < sessions; s++ {
		if err := bm.session(s, tr, a); err != nil {
			return err
		}
	}
	for _, name := range []string{"graph.snapshot_load_ms", "parallel.submissions_per_op", "core.partition_ms", "core.rounds",
		"core.relaxed_per_edge", "core.weighted_partition_ms", "hier.build_ms", "hier.levels", "hier.contract_self_ms",
		"lowstretch.build_ms", "lowstretch.index_self_ms", "lowstretch.weighted_build_ms", "blocks.build_ms",
		"connectivity.build_ms", "oracle.membership_build_ms"} {
		a.report(r, name, unitOf(name))
	}
	hits := float64(bm.t.CacheHit)
	r.set("server.cache_hit_frac", "frac", hits/float64(bm.t.CacheHit+bm.t.CacheMiss))
	// Share of op latency the library spans (app build + oracle) explain.
	lib := 0.0
	for _, n := range []string{"lowstretch.build_ms", "lowstretch.weighted_build_ms", "blocks.build_ms", "connectivity.build_ms", "oracle.membership_build_ms"} {
		lib += a.sum(n)
	}
	r.set("trace.layer_share", "frac", lib/a.sum("op_ms"))
	overhead(r, untraced, bm.lat)
	reportSelfTimes(r, tr)
	r.Trace = tracePath(bm.e, "build-miss")
	return tr.write(r.Trace)
}

// snapshotLoad times snapshot.Load + Fingerprint of the workload graph
// (median of five, the mapping released each time).
func snapshotLoad(a acc, path string) error {
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s, err := snapshot.Load(path)
		if err != nil {
			return err
		}
		_ = s.Fingerprint()
		xs = append(xs, ms(time.Since(t0)))
		s.Close()
	}
	a.add("graph.snapshot_load_ms", median(xs))
	return nil
}
