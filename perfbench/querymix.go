package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mpx/internal/oracle"
	"mpx/internal/parallel"
	"mpx/internal/server"
	"mpx/internal/xrand"
)

// qmState is one query-mix run.
type qmState struct {
	e       env
	road    *roadInput
	pool    *parallel.Pool
	build   buildReq // the one build every query reads
	lib     *libBuild
	dist    *oracle.DistanceOracle
	regReq  []byte
	bldReq  []byte
	ring    []query
	reqs    [][]byte // pre-encoded ring requests
	bufs    [][]byte // per-slot response buffers, reused
	setBody []byte   // the set-up build's response body

	d *daemon
	c *conn

	t      tally
	lat    []float64
	wall   time.Duration
	slot   []int32  // ring slot of each measured op
	status []int16  // and its status
	hash   []uint64 // and its body's FNV-1a hash
	hit    []bool   // and whether the cache header said hit
}

func runQueryMix(e env) (*result, error) {
	road, err := genRoad(e.sz)
	if err != nil {
		return nil, err
	}
	qm := &qmState{e: e, road: road, pool: parallel.NewPool(0)}
	defer qm.pool.Close()
	defer qm.shutdown()
	qm.build = buildReq{App: "lowstretch", Beta: betaLowstretch, Seed: xrand.Mix(e.seed, keyQueries)}
	// The in-process twin of the set-up build gives the level count the
	// query stream draws from and the oracles the checks answer with.
	if qm.lib, err = buildLib(qm.pool, road.g, road.wg, qm.build); err != nil {
		return nil, err
	}
	qm.lib.member = oracle.NewMembership(qm.lib.inc.Hierarchy(), qm.pool, 0)
	qm.dist = oracle.NewDistance(qm.lib.inc.Tree(), qm.pool, 0)
	qm.ring = genQueries(e.seed, road.g.NumVertices(), qm.lib.member.Levels(), e.sz)
	qm.regReq = httpRequest("POST", "/v1/graphs", road.snap)
	qm.bldReq = httpRequest("POST", "/v1/graphs/"+road.fp+"/build", mustJSON(qm.build))
	qm.reqs = make([][]byte, len(qm.ring))
	qm.bufs = make([][]byte, len(qm.ring))
	for i, q := range qm.ring {
		if q.Op == "build" {
			qm.reqs[i] = qm.bldReq
		} else {
			qm.reqs[i] = httpRequest("POST", "/v1/graphs/"+road.fp+"/query", queryBody(qm.build, q))
		}
	}

	var setups []float64
	setupRange := func(from, to int) error {
		return timeSetups(&setups, from, to, qm.shutdown, func(int) error { return qm.setup() })
	}
	if err := setupRange(0, setupsBefore); err != nil {
		return nil, err
	}
	if err := checkBuildBody(qm.setBody, qm.lib.response(road.fp, qm.build)); err != nil {
		qm.t.mismatch("set-up build: %v", err)
	}

	r := &result{}
	steal := startSteal()
	if e.trace {
		if err := qm.traced(r); err != nil {
			return nil, err
		}
	} else {
		cpu0, err := procCPU(qm.d.pid())
		if err != nil {
			return nil, err
		}
		if err := qm.measure(e.seconds, 0); err != nil {
			return nil, err
		}
		cpu1, err := procCPU(qm.d.pid())
		if err != nil {
			return nil, err
		}
		r.note("mpxd cpu %.4f ms/op", ms(cpu1-cpu0)/float64(len(qm.lat)))
	}
	r.note("%s", steal)
	rss, err := procStatusMB(qm.d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	if err := setupRange(setupsBefore, e.sz.setups); err != nil {
		return nil, err
	}
	if err := qm.shutdown(); err != nil {
		return nil, fmt.Errorf("mpxd exit: %w", err)
	}
	qm.verify()
	r.Tally = qm.t
	r.endToEnd(setups, qm.lat, qm.wall, rss)
	r.note("ring of %d distinct requests, %d ops", len(qm.ring), len(qm.slot))
	return r, nil
}

func (qm *qmState) shutdown() error {
	if qm.d == nil {
		return nil
	}
	qm.c.close()
	err := qm.d.stop()
	qm.d, qm.c = nil, nil
	return err
}

// setup starts a daemon, registers the graph, makes the one build, then
// warms up one op of each kind (dist, cluster, same, cache-hit build).
func (qm *qmState) setup() error {
	d, err := startDaemon(qm.e.mpxd, qm.e.tmp, qm.e.trace)
	if err != nil {
		return err
	}
	qm.d = d
	if qm.c, err = dial(d.addr); err != nil {
		return err
	}
	var buf []byte
	rep, buf, err := qm.c.do(qm.regReq, buf)
	if err != nil {
		return err
	}
	if rep.Status != 201 {
		return fmt.Errorf("register: status %d: %s", rep.Status, rep.Body)
	}
	if rep, buf, err = qm.c.do(qm.bldReq, buf); err != nil {
		return err
	}
	if rep.Status != 200 || rep.Cache != "miss" {
		return fmt.Errorf("set-up build: status %d cache %q: %s", rep.Status, rep.Cache, rep.Body)
	}
	qm.setBody = append(qm.setBody[:0], rep.Body...)
	seen := map[string]bool{}
	for i, q := range qm.ring {
		if seen[q.Op] {
			continue
		}
		seen[q.Op] = true
		if rep, buf, err = qm.c.do(qm.reqs[i], buf); err != nil {
			return err
		}
		if rep.Status != 200 {
			return fmt.Errorf("warm-up %s: status %d: %s", q.Op, rep.Status, rep.Body)
		}
	}
	return nil
}

// measure runs ring requests from op `from` on, cyclically, for at least
// budget of timed wall clock (or, with budget 0, exactly `ops` ops).
// Client work in the loop is limited to writing pre-encoded bytes and
// reading each reply into its slot's reused buffer.
func (qm *qmState) measure(budget time.Duration, ops int) error {
	for i := 0; budget > 0 && qm.wall < budget || budget == 0 && i < ops; i++ {
		s := i % len(qm.ring)
		t0 := time.Now()
		rep, buf, err := qm.c.do(qm.reqs[s], qm.bufs[s])
		dt := time.Since(t0)
		qm.bufs[s] = buf
		if err := qm.record(s, rep, dt, err); err != nil {
			return err
		}
	}
	return nil
}

func (qm *qmState) record(s int, rep reply, dt time.Duration, err error) error {
	qm.t.Attempted++
	qm.wall += dt
	if err != nil {
		qm.t.transportFailure()
		return err
	}
	qm.slot = append(qm.slot, int32(s))
	qm.status = append(qm.status, int16(rep.Status))
	qm.hash = append(qm.hash, fnvBytes(rep.Body))
	qm.hit = append(qm.hit, rep.Cache == "hit")
	if rep.Status != 200 {
		qm.t.httpFailure(rep.Status, rep.Body)
		return nil
	}
	qm.lat = append(qm.lat, ms(dt))
	return nil
}

// verify checks, after the clock stopped: each slot's last body against
// the oracle batch answers (queries) or the set-up body (build repeats,
// byte for byte); then every op's status and cache outcome, and its body,
// by hash, against its slot's verified body: identical requests must get
// identical bodies, so every reply of the run is checked.
func (qm *qmState) verify() {
	var bo batchOut
	for i, q := range qm.ring {
		if q.Op == "build" {
			if b := qm.bufs[i]; b != nil && !bytes.Equal(b, qm.setBody) {
				qm.t.mismatch("slot %d: cache-hit build body differs from the set-up build's", i)
			}
			continue
		}
		if qm.bufs[i] == nil {
			continue
		}
		if err := checkQueryBody(qm.bufs[i], q, qm.dist, qm.lib.member, &bo); err != nil {
			qm.t.mismatch("slot %d (%s): %v", i, q.Op, err)
		}
	}
	slotHash := make([]uint64, len(qm.ring))
	for i, b := range qm.bufs {
		slotHash[i] = fnvBytes(b)
	}
	for k, s := range qm.slot {
		if qm.status[k] != 200 {
			continue
		}
		if qm.ring[s].Op == "build" {
			if qm.hit[k] {
				qm.t.CacheHit++
			} else {
				qm.t.CacheMiss++
				qm.t.mismatch("op %d: build repeat missed the cache", k)
			}
		}
		if qm.hash[k] != slotHash[s] {
			qm.t.mismatch("op %d (slot %d): body differs from the slot's verified body", k, s)
		}
	}
}

// traced runs a quarter of the budget untraced, then replays the same ops
// traced: each op a span, then the in-process server handler on the same
// request bytes and the oracle batch call, each a child span.
func (qm *qmState) traced(r *result) error {
	a := acc{}
	snap := filepath.Join(qm.e.work, fmt.Sprintf("road-%d.mpxsnap", qm.e.seed))
	if err := os.WriteFile(snap, qm.road.snap, 0o644); err != nil {
		return err
	}
	defer os.Remove(snap)
	if err := snapshotLoad(a, snap); err != nil {
		return err
	}
	// In-process twin of the daemon, fed the same request bytes.
	srv, err := server.New(server.Config{Pool: qm.pool, SpoolDir: qm.e.tmp})
	if err != nil {
		return err
	}
	defer srv.Close()
	rec := newRecorder()
	for _, req := range [][]byte{qm.regReq, qm.bldReq} {
		if err := serveBytes(srv, rec, req); err != nil {
			return err
		}
	}

	cpu0, err := procCPU(qm.d.pid())
	if err != nil {
		return err
	}
	gc0, _ := qm.d.gcStats()
	if err := qm.measure(qm.e.seconds/4, 0); err != nil {
		return err
	}
	cpu1, err := procCPU(qm.d.pid())
	if err != nil {
		return err
	}
	gc1, heapMax := qm.d.gcStats()
	untraced := append([]float64(nil), qm.lat...)
	n := len(qm.slot)
	r.set("mpxd.cpu_ms_per_op", "ms", ms(cpu1-cpu0)/float64(n))
	r.set("mpxd.gc_cycles_per_op", "count", float64(gc1-gc0)/float64(n))
	r.set("mpxd.gc_heap_peak_mb", "MB", heapMax)

	qm.pool.SetFaultHook(&parallel.FaultHook{})
	tr := newTracer()
	qm.lat, qm.wall = nil, 0
	var handler, oracleT, socket time.Duration
	var allocs uint64
	var queries, hits, repeats int
	var bo batchOut
	for i := 0; i < n; i++ {
		s := i % len(qm.ring)
		q := qm.ring[s]
		span := tr.begin("op "+q.Op, 0, i+1)
		t0 := time.Now()
		rep, buf, err := qm.c.do(qm.reqs[s], qm.bufs[s])
		dt := time.Since(t0)
		tr.end(span)
		qm.bufs[s] = buf
		if err := qm.record(s, rep, dt, err); err != nil {
			return err
		}
		if q.Op == "build" {
			repeats++
			if rep.Cache == "hit" {
				hits++
			}
		}
		// Layer calls on the op's inputs, outside its span.
		lid := tr.begin("layers "+q.Op, 0, i+1)
		hreq, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(qm.reqs[s])))
		if err != nil {
			return err
		}
		rec.reset()
		hd := tr.timed("server.handler", lid, i+1, func() { srv.ServeHTTP(rec, hreq) })
		if rec.status != 200 {
			return fmt.Errorf("in-process %s: status %d: %s", q.Op, rec.status, rec.body)
		}
		handler += hd
		socket += dt - hd
		// Allocation count of the same request, on a second call.
		hreq, _ = http.ReadRequest(bufio.NewReader(bytes.NewReader(qm.reqs[s])))
		rec.reset()
		m0 := heapAllocs()
		srv.ServeHTTP(rec, hreq)
		allocs += heapAllocs() - m0
		if q.Op != "build" {
			sub0 := qm.pool.SubmitCount()
			od := tr.timed("oracle.batch", lid, i+1, func() { bo.run(q, qm.dist, qm.lib.member) })
			oracleT += od
			queries += max(len(q.Pairs), len(q.Verts))
			a.add("parallel.submissions_per_op", float64(qm.pool.SubmitCount()-sub0))
		}
		tr.end(lid)
		a.add("op_ms", ms(dt))
	}
	if err := setupLayers(tr, a, qm.pool, qm.road.g, qm.build.Beta, qm.build.Seed); err != nil {
		return err
	}
	ops := float64(n)
	r.set("server.handler_us", "us", float64(handler.Microseconds())/ops)
	r.set("server.self_us", "us", float64((handler-oracleT).Microseconds())/ops)
	r.set("server.socket_us", "us", float64(socket.Microseconds())/ops)
	r.set("server.allocs_per_request", "count", float64(allocs)/ops)
	r.set("oracle.ns_per_query", "ns", float64(oracleT.Nanoseconds())/float64(queries))
	r.set("server.cache_hit_frac", "frac", float64(hits)/float64(max(repeats, 1)))
	r.set("trace.layer_share", "frac", ms(handler)/a.sum("op_ms"))
	for _, name := range []string{"graph.snapshot_load_ms", "parallel.submissions_per_op", "core.partition_ms", "core.rounds",
		"core.relaxed_per_edge", "hier.build_ms", "hier.levels", "hier.contract_self_ms", "lowstretch.build_ms",
		"lowstretch.index_self_ms", "oracle.membership_build_ms"} {
		a.report(r, name, unitOf(name))
	}
	overhead(r, untraced, qm.lat)
	reportSelfTimes(r, tr)
	r.Trace = tracePath(qm.e, "query-mix")
	return tr.write(r.Trace)
}

// serveBytes runs one pre-encoded request through srv in-process.
func serveBytes(srv *server.Server, rec *recorder, raw []byte) error {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return err
	}
	rec.reset()
	srv.ServeHTTP(rec, req)
	if rec.status/100 != 2 {
		return fmt.Errorf("in-process %s %s: status %d: %s", req.Method, req.URL.Path, rec.status, rec.body)
	}
	return nil
}
