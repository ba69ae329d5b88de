package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
	"mpx/internal/oracle"
	"mpx/internal/xrand"
)

// sizes fixes every input dimension of the three workloads. fullSizes is
// what the benchmark runs; the tests use tinySizes so a smoke run of each
// workload takes a second.
type sizes struct {
	roadRows, roadCols int // road network grid (build-miss, query-mix)
	roadHighways       int // random long-range shortcuts
	paN, paK           int // preferential-attachment graph (update-query)
	sessionBuilds      int // builds per build-miss session (a multiple of 10)
	queryRing          int // distinct pre-encoded query-mix requests
	minBatch, maxBatch int // query-mix batch sizes, log-uniform between the two
	updatePairs        int // query pairs answered per update-query op
	updateRate         int // update-query ops generated per measured second
	setups             int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	roadRows: 400, roadCols: 400, roadHighways: 40,
	paN: 100000, paK: 4,
	sessionBuilds: 10,
	queryRing:     2048, minBatch: 32, maxBatch: 4096,
	updatePairs: 256, updateRate: 150,
	setups: 5,
}

var tinySizes = sizes{
	roadRows: 40, roadCols: 40, roadHighways: 4,
	paN: 3000, paK: 3,
	sessionBuilds: 10,
	queryRing:     64, minBatch: 4, maxBatch: 256,
	updatePairs: 32, updateRate: 40, // one block: the smoke run wraps the stream
	setups: 2,
}

// setupsBefore is how many of a run's set-ups precede its measured phase;
// the rest follow it, so setup_s, their median, spans the run.
const setupsBefore = 2

// Decomposition parameters of every request. They are constants, not
// seeded, so the work per op does not drift between seeds.
const (
	betaLowstretch   = 0.2
	betaConnectivity = 0.4
	betaBlocks       = 0.2
	betaWeighted     = 0.2
	weightLo         = 1.0
	weightHi         = 8.0
)

// Seed streams: every seeded input is derived from the workload seed
// through a distinct key, so changing one generator never shifts
// another's draws.
const (
	keyBuildPlan = iota + 1
	keyQueries
	keyEdits
)

// roadSeed and paSeed fix the two graphs (see genRoad and
// runUpdateQuery).
const (
	roadSeed = 0x70ad
	paSeed   = 0x5eed
)

// roadInput is the weighted road network of build-miss and query-mix,
// with its canonical .mpxsnap encoding (the upload body).
type roadInput struct {
	g    *graph.Graph
	wg   *graph.WeightedGraph
	snap []byte
	fp   string // weighted content fingerprint: the registry key
}

// genRoad builds the road network: grid-like, bounded degree, high
// diameter; each grid edge survives with probability 0.9, plus a few
// highways. Like a real road dataset it is fixed: the workload seed draws
// the traffic on it (build seeds, app order, queries), not the network,
// whose own draw moved a run's peak RSS by about 10%.
func genRoad(sz sizes) (*roadInput, error) {
	g := graph.RoadNetwork(sz.roadRows, sz.roadCols, 0.9, sz.roadHighways, roadSeed)
	wg := graph.RandomWeights(g, weightLo, weightHi, xrand.Mix(roadSeed, 1))
	var buf bytes.Buffer
	if err := snapshot.WriteWeighted(&buf, wg); err != nil {
		return nil, fmt.Errorf("encoding road snapshot: %w", err)
	}
	return &roadInput{g: g, wg: wg, snap: buf.Bytes(), fp: fmt.Sprintf("%016x", wg.Fingerprint())}, nil
}

// buildReq is one build request of the app mix.
type buildReq struct {
	App      string  `json:"app"`
	Weighted bool    `json:"weighted,omitempty"`
	Beta     float64 `json:"beta"`
	Seed     uint64  `json:"seed"`
}

// kind names the latency mode of a build: the app, with weighted
// lowstretch its own mode.
func (r buildReq) kind() string {
	if r.Weighted {
		return "lowstretch-weighted"
	}
	return r.App
}

// mixOf10 is the build-miss app mix over every ten builds: connectivity
// 30%, lowstretch 40%, weighted lowstretch 10%, blocks 20%. Sorted by
// latency (connectivity < lowstretch < weighted < blocks) the modes span
// [0,30%), [30,70%), [70,80%) and [80,100%], so p50 sits at the middle of
// the lowstretch mode and p90 at the middle of the blocks mode, far from
// any boundary between two modes.
var mixOf10 = []buildReq{
	{App: "connectivity", Beta: betaConnectivity},
	{App: "connectivity", Beta: betaConnectivity},
	{App: "connectivity", Beta: betaConnectivity},
	{App: "lowstretch", Beta: betaLowstretch},
	{App: "lowstretch", Beta: betaLowstretch},
	{App: "lowstretch", Beta: betaLowstretch},
	{App: "lowstretch", Beta: betaLowstretch},
	{App: "lowstretch", Weighted: true, Beta: betaWeighted},
	{App: "blocks", Beta: betaBlocks},
	{App: "blocks", Beta: betaBlocks},
}

// genBuildPlan returns the builds of session s: sessionBuilds requests
// holding exactly the mix shares, shuffled, each with a fresh seed so
// every one misses the result cache.
func genBuildPlan(seed uint64, session int, sz sizes) []buildReq {
	rng := xrand.NewSplitMix64(xrand.Mix2(seed, keyBuildPlan, uint64(session)))
	out := make([]buildReq, 0, sz.sessionBuilds)
	for len(out) < sz.sessionBuilds {
		out = append(out, mixOf10...)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	for i := range out {
		out[i].Seed = xrand.Mix2(seed, uint64(session)<<20|uint64(i), keyBuildPlan)
	}
	return out
}

// httpRequest pre-encodes one HTTP/1.1 request, headers and body, so the
// timed loop only writes bytes.
func httpRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(body) + 160)
	b.WriteString(method + " " + path + " HTTP/1.1\r\nHost: mpxd\r\n")
	if body != nil {
		b.WriteString("Content-Type: application/octet-stream\r\nContent-Length: ")
		b.WriteString(strconv.Itoa(len(body)))
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// query is one query-mix request: a batch of one op, or (op "build") a
// repeat of the set-up build that must hit the cache.
type query struct {
	Op    string
	Level int
	Pairs []oracle.Pair
	Verts []uint32
}

// queryBody is the JSON body of a query request, built by hand: the
// server's strict decoder wants "pairs" as [[u,v],...].
func queryBody(b buildReq, q query) []byte {
	var w bytes.Buffer
	fmt.Fprintf(&w, `{"app":%q,"beta":%s,"seed":%d,"op":%q`, b.App, strconv.FormatFloat(b.Beta, 'g', -1, 64), b.Seed, q.Op)
	if q.Op != "dist" {
		fmt.Fprintf(&w, `,"level":%d`, q.Level)
	}
	if q.Op == "cluster" {
		w.WriteString(`,"verts":[`)
		for i, v := range q.Verts {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.FormatUint(uint64(v), 10))
		}
	} else {
		w.WriteString(`,"pairs":[`)
		for i, p := range q.Pairs {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteByte('[')
			w.WriteString(strconv.FormatUint(uint64(p.U), 10))
			w.WriteByte(',')
			w.WriteString(strconv.FormatUint(uint64(p.V), 10))
			w.WriteByte(']')
		}
	}
	w.WriteString("]}")
	return w.Bytes()
}

// genQueries returns the query-mix ring: ring requests, one in ten a
// repeat of the set-up build, the rest dist/cluster/same batches in equal
// shares with sizes log-uniform over [minBatch, maxBatch] and levels
// uniform over the build's membership levels. Batches below minBatch are
// left out because their latency is mostly two loopback wakeups, which on
// a shared virtual machine drift far more than the serving work does: with
// sizes from 1, the p50 of ten seeded runs spread by 25%.
func genQueries(seed uint64, n, levels int, sz sizes) []query {
	rng := xrand.NewSplitMix64(xrand.Mix(seed, keyQueries))
	out := make([]query, sz.queryRing)
	ops := []string{"dist", "cluster", "same"}
	logMin, logMax := math.Log(float64(sz.minBatch)), math.Log(float64(sz.maxBatch))
	for i := range out {
		if i%10 == 9 {
			out[i] = query{Op: "build"}
			continue
		}
		q := query{Op: ops[rng.Intn(len(ops))]}
		size := min(max(int(math.Exp(logMin+rng.Float64()*(logMax-logMin))), sz.minBatch), sz.maxBatch)
		if q.Op != "dist" {
			q.Level = rng.Intn(levels)
		}
		if q.Op == "cluster" {
			q.Verts = make([]uint32, size)
			for j := range q.Verts {
				q.Verts[j] = uint32(rng.Intn(n))
			}
		} else {
			q.Pairs = make([]oracle.Pair, size)
			for j := range q.Pairs {
				q.Pairs[j] = oracle.Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
			}
		}
		out[i] = q
	}
	// Shuffle so the build repeats are not periodic.
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// editOp is one update-query op: insert one friend-of-friend edge, delete
// the one the previous op inserted (the window is one batch, so the graph
// never drifts more than one edge from the base), then answer Pairs.
type editOp struct {
	Insert   graph.Edge
	Delete   []graph.Edge // empty for the first op
	Rederive bool         // planned latency mode: the hierarchy re-derives
	Pairs    []oracle.Pair
}

// updatePrefix is the number of warm-up ops at the head of the stream:
// one of each mode (re-derive, then cleared), run during set-up.
const updatePrefix = 3

// The update-query plan holds its mode shares exactly over every block of
// editBlock ops, which insert editRederives re-deriving edges each; the
// measured stream is whole blocks.
const (
	editBlock     = 20
	editRederives = 3
)

// genEdits plans the update-query stream against the base graph g. Each
// friend-of-friend edge drawn is classified against the hierarchy's
// level-0 decomposition d0: a "clearing" edge passes UnchangedUnder, so
// inserting it and later deleting it leave every level verified; a
// "re-deriving" edge fails it and forces a re-derive from level 0 both
// when inserted and when deleted. On the benchmark's graph 16% of
// unfiltered friend-of-friend draws re-derive, and, since an op re-derives
// when its insert or its delete does, 30% of the ops of an unfiltered
// stream do (TestEditPlanMatchesNaturalStream). The plan fixes that share:
// after the warm-up prefix, every block of editBlock ops inserts exactly
// editRederives re-deriving edges, never adjacent and never at the
// block's last slot, so exactly 6 ops in 20 re-derive. p50 then sits 71%
// into the cleared mode and p90 two thirds into the re-derive mode.
func genEdits(seed uint64, g *graph.Graph, d0 *core.Decomposition, ops, pairs int) ([]editOp, error) {
	rng := xrand.NewSplitMix64(xrand.Mix(seed, keyEdits))
	n := g.NumVertices()
	rederive := make([]bool, ops)
	rederive[0] = true
	for b := updatePrefix; b+editBlock <= ops; b += editBlock {
		// editRederives distinct slots of [0, editBlock-editRederives),
		// sorted, the k-th moved up by k: non-adjacent slots of
		// [0, editBlock-1).
		slots := make([]int, 0, editRederives)
		for len(slots) < editRederives {
			if x := rng.Intn(editBlock - editRederives); !slices.Contains(slots, x) {
				slots = append(slots, x)
			}
		}
		slices.Sort(slots)
		for k, x := range slots {
			rederive[b+x+k] = true
		}
	}
	out := make([]editOp, ops)
	var prev graph.Edge
	for i := range out {
		e, err := fofEdge(rng, g, d0, rederive[i], prev)
		if err != nil {
			return nil, err
		}
		op := editOp{Insert: e, Rederive: rederive[i] || i > 0 && rederive[i-1]}
		if i > 0 {
			op.Delete = []graph.Edge{prev}
		}
		op.Pairs = make([]oracle.Pair, pairs)
		for j := range op.Pairs {
			op.Pairs[j] = oracle.Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		}
		out[i] = op
		prev = e
	}
	return out, nil
}

// fofDraw draws a friend-of-friend edge {u, w} (u, then a neighbour v,
// then a neighbour w of v) absent from g and distinct from prev.
func fofDraw(rng *xrand.SplitMix64, g *graph.Graph, prev graph.Edge) graph.Edge {
	n := g.NumVertices()
	for {
		u := uint32(rng.Intn(n))
		nu := g.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		v := nu[rng.Intn(len(nu))]
		nv := g.Neighbors(v)
		w := nv[rng.Intn(len(nv))]
		if w == u || g.HasEdge(u, w) {
			continue
		}
		if e := (graph.Edge{U: min(u, w), V: max(u, w)}); e != prev {
			return e
		}
	}
}

// fofEdge draws friend-of-friend edges until one of the requested class
// comes up.
func fofEdge(rng *xrand.SplitMix64, g *graph.Graph, d0 *core.Decomposition, rederive bool, prev graph.Edge) (graph.Edge, error) {
	for try := 0; try < 1<<20; try++ {
		e := fofDraw(rng, g, prev)
		if d0.UnchangedUnder([]graph.Edge{e}, nil) != rederive {
			return e, nil
		}
	}
	return graph.Edge{}, fmt.Errorf("no friend-of-friend edge with rederive=%v found", rederive)
}
