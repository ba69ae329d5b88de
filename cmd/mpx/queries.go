package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/oracle"
	"mpx/internal/xrand"
)

// query is one point query of a -queries trace.
type query struct {
	op    byte // 'd' = distance, 'c' = cluster id, 's' = same cluster
	level int  // 'c'/'s' only
	u, v  uint32
}

// parseQueryTrace reads a query trace for -queries: one query per line —
// "d u v" (tree distance), "c l v" (cluster id of v at level l), or
// "s l u v" (same-cluster at level l) — with batches separated by blank
// lines or a "---" line, and "#" starting a comment. Each batch is served
// through the oracle batch APIs as one unit. Malformed lines fail with
// their line number; vertex ids and levels are range-checked against the
// built structures by the runner, not the parser.
func parseQueryTrace(r io.Reader) ([][]query, error) {
	size := func(b []query) int { return len(b) }
	return readTrace(r, "queries", size, func(l *traceLine, b *[]query) {
		switch l.fields[0] {
		case "d":
			if len(l.fields) != 3 {
				l.fail("distance query is \"d u v\", got %d fields", len(l.fields))
				return
			}
			*b = append(*b, query{op: 'd', u: l.vertex(1), v: l.vertex(2)})
		case "c":
			if len(l.fields) != 3 {
				l.fail("cluster query is \"c l v\", got %d fields", len(l.fields))
				return
			}
			*b = append(*b, query{op: 'c', level: l.level(1), u: l.vertex(2)})
		case "s":
			if len(l.fields) != 4 {
				l.fail("same-cluster query is \"s l u v\", got %d fields", len(l.fields))
				return
			}
			*b = append(*b, query{op: 's', level: l.level(1), u: l.vertex(2), v: l.vertex(3)})
		default:
			l.fail("unknown query op %q (want \"d\", \"c\", \"s\", \"---\" or a comment)", l.fields[0])
		}
	})
}

// level parses field i as a hierarchy level.
func (l *traceLine) level(i int) int {
	v, err := strconv.ParseUint(l.fields[i], 10, 31)
	if err != nil {
		l.fail("bad level %q: %v", l.fields[i], err)
	}
	return int(v)
}

// synthQueries generates a deterministic synthetic workload: count queries
// in batches of batch — a 50/25/25 mix of distance, cluster-id and
// same-cluster queries over uniform random vertices and levels.
func synthQueries(count, batch, n, levels int, seed uint64) [][]query {
	rng := xrand.NewSplitMix64(seed)
	var batches [][]query
	for count > 0 {
		sz := batch
		if sz > count {
			sz = count
		}
		b := make([]query, sz)
		for i := range b {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			switch rng.Intn(4) {
			case 0, 1:
				b[i] = query{op: 'd', u: u, v: v}
			case 2:
				b[i] = query{op: 'c', level: rng.Intn(levels), u: u}
			default:
				b[i] = query{op: 's', level: rng.Intn(levels), u: u, v: v}
			}
		}
		batches = append(batches, b)
		count -= sz
	}
	return batches
}

// queryScratch holds the reusable per-batch buffers of the replay loop:
// after the first batch, serving allocates nothing per query (the E25
// contract).
type queryScratch struct {
	dPairs, sPairs []oracle.Pair
	dIdx, cIdx     []int
	sIdx, cVerts   []uint32
	dOut           []int32
	cOut           []uint32
	sOut           []bool
}

// serveBatch splits one batch by op, runs the three oracle batch APIs, and
// folds the answers into checksums (so results are observable and the
// work cannot be elided). Returns an error on out-of-range vertices or
// levels, identifying the offending query.
func serveBatch(b []query, do *oracle.DistanceOracle, mo *oracle.MembershipOracle, sc *queryScratch, distSum *int64, sameCount *int64, clusterXor *uint32) error {
	n := mo.NumVertices()
	levels := mo.Levels()
	sc.dPairs, sc.sPairs = sc.dPairs[:0], sc.sPairs[:0]
	sc.cVerts = sc.cVerts[:0]
	sc.dIdx, sc.cIdx = sc.dIdx[:0], sc.cIdx[:0]
	sc.sIdx = sc.sIdx[:0]
	for i, q := range b {
		if int(q.u) >= n || (q.op != 'c' && int(q.v) >= n) {
			return fmt.Errorf("query %d: vertex out of range (n=%d)", i, n)
		}
		switch q.op {
		case 'd':
			sc.dPairs = append(sc.dPairs, oracle.Pair{U: q.u, V: q.v})
		case 'c':
			if q.level >= levels {
				return fmt.Errorf("query %d: level %d out of range (levels=%d)", i, q.level, levels)
			}
			sc.cVerts = append(sc.cVerts, q.u)
			sc.cIdx = append(sc.cIdx, q.level)
		case 's':
			if q.level >= levels {
				return fmt.Errorf("query %d: level %d out of range (levels=%d)", i, q.level, levels)
			}
			sc.sPairs = append(sc.sPairs, oracle.Pair{U: q.u, V: q.v})
			sc.sIdx = append(sc.sIdx, uint32(q.level))
		}
	}
	if len(sc.dPairs) > 0 {
		if cap(sc.dOut) < len(sc.dPairs) {
			sc.dOut = make([]int32, len(sc.dPairs))
		}
		do.DistBatch(sc.dPairs, sc.dOut[:len(sc.dPairs)])
		for _, d := range sc.dOut[:len(sc.dPairs)] {
			*distSum += int64(d)
		}
	}
	// Cluster/same-cluster batches are per-level; serve each level's run
	// contiguously (traces and the synthetic generator mix levels freely,
	// so group by level index here).
	if len(sc.cVerts) > 0 {
		if cap(sc.cOut) < len(sc.cVerts) {
			sc.cOut = make([]uint32, len(sc.cVerts))
		}
		for lo := 0; lo < len(sc.cVerts); {
			hi := lo + 1
			for hi < len(sc.cVerts) && sc.cIdx[hi] == sc.cIdx[lo] {
				hi++
			}
			mo.ClusterBatch(sc.cIdx[lo], sc.cVerts[lo:hi], sc.cOut[lo:hi])
			lo = hi
		}
		for _, c := range sc.cOut[:len(sc.cVerts)] {
			*clusterXor ^= c
		}
	}
	if len(sc.sPairs) > 0 {
		if cap(sc.sOut) < len(sc.sPairs) {
			sc.sOut = make([]bool, len(sc.sPairs))
		}
		for lo := 0; lo < len(sc.sPairs); {
			hi := lo + 1
			for hi < len(sc.sPairs) && sc.sIdx[hi] == sc.sIdx[lo] {
				hi++
			}
			mo.SameClusterBatch(int(sc.sIdx[lo]), sc.sPairs[lo:hi], sc.sOut[lo:hi])
			lo = hi
		}
		for _, s := range sc.sOut[:len(sc.sPairs)] {
			if s {
				*sameCount++
			}
		}
	}
	return nil
}

// runQueries is the -queries mode: build the low-stretch tree and its
// hierarchy once, wrap them in oracles, replay the query batches, and
// report throughput and per-batch latency percentiles. Queries never
// mutate the structures, so the replay is a pure read workload — the
// serving shape of the E25 experiment.
func runQueries(g *graph.Graph, beta float64, spec string, qbatch int, opts core.Options) error {
	ctx, pool, seed, workers, dir := opts.Ctx, opts.Pool, opts.Seed, opts.Workers, opts.Direction
	inc, err := lowstretch.BuildIncrementalPoolCtx(ctx, pool, g, beta, seed, workers, dir)
	if err != nil {
		return err
	}
	do := oracle.NewDistance(inc.Tree(), pool, workers)
	mo := oracle.NewMembership(inc.Hierarchy(), pool, workers)
	fmt.Printf("graph: n=%d m=%d levels=%d\n", g.NumVertices(), g.NumEdges(), mo.Levels())

	var batches [][]query
	if rest, ok := strings.CutPrefix(spec, "synth:"); ok {
		count, err := strconv.Atoi(rest)
		if err != nil || count <= 0 {
			return fmt.Errorf("-queries synth:N needs a positive query count, got %q", rest)
		}
		if mo.Levels() == 0 {
			return fmt.Errorf("-queries: the hierarchy has no levels (empty graph); nothing to query")
		}
		batches = synthQueries(count, qbatch, g.NumVertices(), mo.Levels(), seed)
	} else {
		f, err := os.Open(spec)
		if err != nil {
			return err
		}
		batches, err = parseQueryTrace(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	var sc queryScratch
	var distSum, sameCount int64
	var clusterXor uint32
	total := 0
	lat := make([]float64, 0, len(batches))
	start := time.Now()
	for i, b := range batches {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := serveBatch(b, do, mo, &sc, &distSum, &sameCount, &clusterXor); err != nil {
			return fmt.Errorf("batch %d: %v", i, err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		total += len(b)
	}
	elapsed := time.Since(start)

	sort.Float64s(lat)
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	qps := float64(total) / elapsed.Seconds()
	fmt.Printf("queries: total=%d batches=%d elapsed=%v qps=%.0f\n", total, len(batches), elapsed.Round(time.Microsecond), qps)
	fmt.Printf("latency: batchP50=%s batchP99=%s\n",
		time.Duration(pct(0.50)).Round(time.Nanosecond), time.Duration(pct(0.99)).Round(time.Nanosecond))
	fmt.Printf("answers: distSum=%d sameCluster=%d clusterXor=%08x\n", distSum, sameCount, clusterXor)
	return nil
}
