package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
	"mpx/internal/xrand"
)

// updateJob is the update-query input the parent generates and the worker
// process reads: the incremental build's parameters and the op stream.
// The job file holds two gob values: the job with only the warm-up
// prefix, which set-up reads, then the measured ops, which the worker
// reads after its set-up time is taken.
type updateJob struct {
	Beta float64
	Seed uint64
	Ops  []editOp
}

// workerReport is what the worker hands back after its measured phase.
type workerReport struct {
	Lat     []float64
	WallS   float64
	Tally   tally
	RSSMB   float64
	Metrics map[string]metric
	Notes   []string
	Trace   string
}

func updatePaths(e env) (snap, job string) {
	return filepath.Join(e.work, fmt.Sprintf("pa-%d.mpxsnap", e.seed)), filepath.Join(e.work, fmt.Sprintf("edits-%d.gob", e.seed))
}

// runUpdateQuery generates the inputs, then launches the worker process
// sz.setups times: each reports "ready" once set up; the last one of the
// first setupsBefore runs the measured phase, the others are told to exit.
func runUpdateQuery(e env) (*result, error) {
	// The graph and its hierarchy are fixed; the seed draws the edit stream
	// and the queries. One hierarchy serves a whole run, so a seeded one
	// would make the run's cost hinge on a single draw of its level
	// structure: two seeds repeatably differed by 45% in p90 latency and
	// 26% in peak RSS.
	g := graph.PreferentialAttachment(e.sz.paN, e.sz.paK, paSeed)
	job := updateJob{Beta: betaLowstretch, Seed: paSeed}
	pool := parallel.NewPool(0)
	d0, err := core.Partition(g, job.Beta, core.Options{Seed: xrand.Mix(job.Seed, 0), Pool: pool})
	pool.Close()
	if err != nil {
		return nil, err
	}
	ops := updatePrefix + editBlock*int(math.Ceil(e.seconds.Seconds()*float64(e.sz.updateRate)/editBlock))
	all, err := genEdits(e.seed, g, d0, ops, e.sz.updatePairs)
	if err != nil {
		return nil, err
	}
	job.Ops = all[:updatePrefix]
	snapPath, jobPath := updatePaths(e)
	if err := snapshot.WriteFile(snapPath, g, nil); err != nil {
		return nil, err
	}
	defer os.Remove(snapPath)
	f, err := os.Create(jobPath)
	if err != nil {
		return nil, err
	}
	enc := gob.NewEncoder(f)
	err = enc.Encode(job)
	if err == nil {
		err = enc.Encode(all[updatePrefix:])
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	defer os.Remove(jobPath)

	var setups []float64
	var rep workerReport
	for k := 0; k < e.sz.setups; k++ {
		s, err := launchWorker(e, k == setupsBefore-1, &rep)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", k, err)
		}
		setups = append(setups, s)
	}
	r := &result{Tally: rep.Tally, Notes: rep.Notes, Trace: rep.Trace}
	r.endToEnd(setups, rep.Lat, time.Duration(rep.WallS*float64(time.Second)), rep.RSSMB)
	for k, m := range rep.Metrics {
		r.Metrics[k] = m
	}
	return r, nil
}

// launchWorker starts one worker and returns its set-up time, from launch
// to its "ready" line. With measure it runs the measured phase and fills
// rep; otherwise it is told to exit.
func launchWorker(e env, measure bool, rep *workerReport) (float64, error) {
	trace := "0"
	if e.trace {
		trace = "1"
	}
	cmd := exec.Command(e.self, "--worker", "--seed", strconv.FormatUint(e.seed, 10),
		"--seconds", strconv.FormatFloat(e.seconds.Seconds(), 'g', -1, 64),
		"--trace", trace, "--work", e.work, "--size", sizeName(e.sz))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	setup := time.Since(t0).Seconds()
	if err != nil || line != "ready\n" {
		stdin.Close()
		cmd.Wait()
		return 0, fmt.Errorf("worker did not get ready (%q, %v)", line, err)
	}
	cmdLine := "exit\n"
	if measure {
		cmdLine = "go\n"
	}
	if _, err := io.WriteString(stdin, cmdLine); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return 0, err
	}
	stdin.Close()
	var derr error
	if measure {
		derr = json.NewDecoder(out).Decode(rep)
	}
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if derr != nil {
		return 0, fmt.Errorf("reading worker report: %w", derr)
	}
	return setup, nil
}

func sizeName(sz sizes) string {
	if sz == tinySizes {
		return "tiny"
	}
	return "full"
}

// uqWorker is the update-query process under test.
type uqWorker struct {
	e    env
	job  updateJob
	pool *parallel.Pool
	base *graph.Graph // the loaded snapshot graph
	inc  *lowstretch.Incremental
	dist *oracle.DistanceOracle
	mo   *oracle.MembershipOracle
	dout []int32
	sout []bool

	next     int // the next op of the stream to run
	t        tally
	lat      []float64
	wall     time.Duration
	modeMiss int
	cleared  int
	bare     *hier.Hierarchy // traced runs: a bare hierarchy fed the same batches
	rss      []float64       // peak RSS of each block of editBlock ops, MB
}

// updateWorker is the worker's main: set up (load the snapshot, build the
// incremental forest and its oracles, run the warm-up ops), say "ready",
// and on "go" read the measured ops, run the measured phase and print its
// report.
func updateWorker(e env, stdin io.Reader, stdout io.Writer) error {
	snapPath, jobPath := updatePaths(e)
	w := &uqWorker{e: e, pool: parallel.NewPool(0)}
	defer w.pool.Close()
	f, err := os.Open(jobPath)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := gob.NewDecoder(bufio.NewReader(f))
	if err := dec.Decode(&w.job); err != nil {
		return fmt.Errorf("reading %s: %w", jobPath, err)
	}
	s, err := snapshot.Load(snapPath)
	if err != nil {
		return err
	}
	defer s.Close()
	w.base = s.Graph()
	if w.inc, err = lowstretch.BuildIncrementalPoolCtx(nil, w.pool, w.base, w.job.Beta, w.job.Seed, 0, core.DirectionAuto); err != nil {
		return err
	}
	setupTree := append([]graph.Edge(nil), w.inc.Tree().Edges...)
	setupLevels := w.inc.Tree().Levels
	w.dist = oracle.NewDistance(w.inc.Tree(), w.pool, 0)
	w.dout = make([]int32, e.sz.updatePairs)
	w.sout = make([]bool, e.sz.updatePairs)
	if err := w.warmUp(); err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, "ready\n"); err != nil {
		return err
	}
	cmd, err := bufio.NewReader(stdin).ReadString('\n')
	if err != nil || cmd != "go\n" {
		return nil
	}
	var measured []editOp
	if err := dec.Decode(&measured); err != nil {
		return fmt.Errorf("reading %s: %w", jobPath, err)
	}
	w.job.Ops = append(w.job.Ops, measured...)

	rep := workerReport{Metrics: map[string]metric{}}
	steal := startSteal()
	if e.trace {
		if err := w.traced(&rep); err != nil {
			return err
		}
	} else if _, err := w.measure(e.seconds, -1, nil, nil); err != nil {
		return err
	}
	rep.RSSMB = median(w.rss)
	stolen := steal.String()
	// Final untimed flush of the edit window: the graph is the base graph
	// again, so the tree must equal the set-up tree and a from-scratch
	// build on the final graph.
	if err := w.flush(); err != nil {
		return err
	}
	t := w.inc.Tree()
	if t.Levels != setupLevels || !slices.Equal(t.Edges, setupTree) {
		w.t.mismatch("after the flush the tree differs from the set-up tree (%d vs %d edges)", len(t.Edges), len(setupTree))
	}
	fresh, err := lowstretch.BuildPoolCtx(nil, w.pool, w.inc.Hierarchy().Graph(), w.job.Beta, w.job.Seed, 0, core.DirectionAuto)
	if err != nil {
		return err
	}
	if fresh.Levels != t.Levels || !slices.Equal(fresh.Edges, t.Edges) {
		w.t.mismatch("after the flush the tree differs from a from-scratch build on the final graph")
	}
	rep.Lat, rep.WallS, rep.Tally = w.lat, w.wall.Seconds(), w.t
	ops := len(w.lat)
	rep.Notes = append(rep.Notes, stolen)
	rep.Notes = append(rep.Notes, fmt.Sprintf("ops %d: cleared %d (%.1f%%), latency mode differed from plan on %d",
		ops, w.cleared, 100*float64(w.cleared)/float64(max(ops, 1)), w.modeMiss))
	return json.NewEncoder(stdout).Encode(rep)
}

// warmUp runs the stream's prefix (one op of each mode), after which the
// stream continues at its first measured op.
func (w *uqWorker) warmUp() error {
	for i := 0; i < updatePrefix; i++ {
		if _, _, err := w.op(i, nil, 0); err != nil {
			return err
		}
		if err := w.feedBare(w.job.Ops[i].batch()); err != nil {
			return err
		}
	}
	w.next = updatePrefix
	return nil
}

// flush deletes the edge the last op inserted: the graph is the base
// graph again.
func (w *uqWorker) flush() error {
	b := graph.Batch{Delete: []graph.Edge{w.job.Ops[w.next-1].Insert}}
	if _, err := w.inc.UpdateCtx(nil, b); err != nil {
		return err
	}
	return w.feedBare(b)
}

// rewind returns to the set-up state, untimed: flush, then replay the
// warm-up prefix.
func (w *uqWorker) rewind() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.warmUp()
}

// feedBare applies an unmeasured batch to the traced run's bare hierarchy
// too, so it keeps tracking the incremental forest.
func (w *uqWorker) feedBare(b graph.Batch) error {
	if w.bare == nil {
		return nil
	}
	_, err := w.bare.UpdateCtx(nil, b, nil)
	return err
}

// batch is the op's edit batch.
func (o editOp) batch() graph.Batch {
	return graph.Batch{Insert: []graph.Edge{o.Insert}, Delete: o.Delete}
}

// op runs op i: apply its batch, refresh the membership oracle, answer its
// query batch. With a tracer the three steps are child spans of the op.
func (w *uqWorker) op(i int, tr *tracer, span int) (hier.UpdateStats, time.Duration, error) {
	o := w.job.Ops[i]
	b := o.batch()
	step := func(name string, fn func()) {
		if tr != nil {
			tr.timed(name, span, i+1, fn)
		} else {
			fn()
		}
	}
	var us hier.UpdateStats
	var err error
	t0 := time.Now()
	step("lowstretch.update", func() { us, err = w.inc.UpdateCtx(nil, b) })
	if err != nil {
		return us, 0, err
	}
	step("oracle.membership_build", func() { w.mo = oracle.NewMembership(w.inc.Hierarchy(), w.pool, 0) })
	step("oracle.batch", func() {
		w.dist.DistBatch(o.Pairs, w.dout)
		w.mo.SameClusterBatch(0, o.Pairs, w.sout)
	})
	return us, time.Since(t0), nil
}

// measure runs whole blocks of editBlock ops from w.next until budget of
// timed wall clock is spent or limit ops ran (limit < 0: no limit),
// checking each op's answers after its clock stopped. At the end of the
// stream it rewinds, untimed, and goes on from the first measured op, so
// a faster program replays the stream instead of running out of it. It
// returns the number of ops run.
func (w *uqWorker) measure(budget time.Duration, limit int, tr *tracer, a acc) (int, error) {
	n := 0
	for ; w.wall < budget && (limit < 0 || n < limit); n += editBlock {
		if w.next == len(w.job.Ops) {
			if err := w.rewind(); err != nil {
				return 0, err
			}
		}
		// Each block's peak RSS is measured alone: reset the high-water
		// mark, read it after the block.
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return 0, fmt.Errorf("resetting peak RSS: %w", err)
		}
		for end := w.next + editBlock; w.next < end; w.next++ {
			if err := w.measureOp(w.next, tr, a); err != nil {
				return 0, err
			}
		}
		rss, err := procStatusMB(os.Getpid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		w.rss = append(w.rss, rss)
	}
	return n, nil
}

func (w *uqWorker) measureOp(j int, tr *tracer, a acc) error {
	var span int
	if tr != nil {
		span = tr.begin("op update-query", 0, j+1)
	}
	prevG := w.inc.Hierarchy().Graph()
	sub0 := w.pool.SubmitCount()
	us, dt, err := w.op(j, tr, span)
	w.t.Attempted++
	if err != nil {
		w.t.Failed++
		return err
	}
	if tr != nil {
		tr.end(span)
		a.add("parallel.submissions_per_op", float64(w.pool.SubmitCount()-sub0))
		a.add("op_ms", ms(dt))
	}
	w.wall += dt
	w.lat = append(w.lat, ms(dt))
	if us.Rederived == 0 {
		w.cleared++
	}
	if (us.Rederived > 0) != w.job.Ops[j].Rederive {
		w.modeMiss++
	}
	o := w.job.Ops[j]
	for k, p := range o.Pairs {
		if w.dout[k] != w.dist.Dist(p.U, p.V) || w.sout[k] != w.mo.SameCluster(p.U, p.V, 0) {
			w.t.mismatch("op %d pair %d: batch answer differs from the scalar oracle", j, k)
			break
		}
	}
	if tr != nil {
		return w.layers(tr, a, j, prevG, us)
	}
	return nil
}

// layers runs the per-layer calls on op j's inputs, outside its span.
func (w *uqWorker) layers(tr *tracer, a acc, j int, prevG *graph.Graph, us hier.UpdateStats) error {
	b := w.job.Ops[j].batch()
	lid := tr.begin("layers update-query", 0, j+1)
	defer tr.end(lid)
	var err error
	d := tr.timed("graph.apply_batch", lid, j+1, func() { _, _, err = graph.ApplyBatch(prevG, b) })
	if err != nil {
		return err
	}
	a.addDur("graph.apply_batch_ms", d)
	var bs hier.UpdateStats
	d = tr.timed("hier.update", lid, j+1, func() { bs, err = w.bare.UpdateCtx(nil, b, nil) })
	if err != nil {
		return err
	}
	a.addDur("hier.update_ms", d)
	if bs.Rederived == 0 {
		a.add("hier.update_cleared_frac", 1)
	} else {
		a.add("hier.update_cleared_frac", 0)
	}
	a.add("hier.update_rederived", float64(bs.Rederived))
	a.add("hier.update_refreshed", float64(bs.Refreshed))
	a.add("hier.update_reused", float64(bs.Reused))
	if bs != us {
		w.t.mismatch("op %d: bare hierarchy update %s, incremental forest %s", j, bs, us)
	}
	return nil
}

// traced runs a quarter of the budget untraced, rewinds to the set-up
// state, then replays the same ops traced.
func (w *uqWorker) traced(rep *workerReport) error {
	a := acc{}
	snapPath, _ := updatePaths(w.e)
	if err := snapshotLoad(a, snapPath); err != nil {
		return err
	}
	n, err := w.measure(w.e.seconds/4, -1, nil, nil)
	if err != nil {
		return err
	}
	untraced := w.lat
	if err := w.rewind(); err != nil {
		return err
	}
	if w.bare, err = hier.BuildHierarchy(hier.Config{Beta: w.job.Beta, Seed: w.job.Seed, Pool: w.pool, Direction: core.DirectionAuto, NeedEdgeOrig: true},
		w.inc.Hierarchy().Graph(), nil); err != nil {
		return err
	}
	w.pool.SetFaultHook(&parallel.FaultHook{})
	tr := newTracer()
	w.lat, w.wall, w.cleared, w.modeMiss, w.rss = nil, 0, 0, 0, nil
	if _, err := w.measure(time.Duration(math.MaxInt64), n, tr, a); err != nil {
		return err
	}
	r := &result{Metrics: rep.Metrics}
	for _, name := range []string{"graph.snapshot_load_ms", "graph.apply_batch_ms", "parallel.submissions_per_op", "hier.update_ms",
		"hier.update_cleared_frac", "hier.update_rederived", "hier.update_refreshed", "hier.update_reused"} {
		a.report(r, name, unitOf(name))
	}
	st := tr.selfTimes()
	ops := float64(len(w.lat))
	upd := ms(st["lowstretch.update"]) / ops
	r.set("lowstretch.update_self_ms", "ms", upd-a.mean("hier.update_ms"))
	r.set("oracle.membership_build_ms", "ms", ms(st["oracle.membership_build"])/ops)
	r.set("oracle.ns_per_query", "ns", float64(st["oracle.batch"].Nanoseconds())/(ops*2*float64(w.e.sz.updatePairs)))
	r.set("trace.layer_share", "frac", (ms(st["lowstretch.update"])+ms(st["oracle.membership_build"])+ms(st["oracle.batch"]))/a.sum("op_ms"))
	// The set-up build's layers, after the op self times are taken.
	if err := setupLayers(tr, a, w.pool, w.base, w.job.Beta, w.job.Seed); err != nil {
		return err
	}
	for _, name := range []string{"core.partition_ms", "core.rounds", "core.relaxed_per_edge", "hier.build_ms",
		"hier.levels", "hier.contract_self_ms", "lowstretch.build_ms", "lowstretch.index_self_ms"} {
		a.report(r, name, unitOf(name))
	}
	overhead(r, untraced, w.lat)
	reportSelfTimes(r, tr)
	rep.Notes = r.Notes
	rep.Trace = tracePath(w.e, "update-query")
	return tr.write(rep.Trace)
}
