package server

import (
	"context"
	"math"
	"net/http"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
)

// buildRequest is the POST .../build body. App selects the workload:
//
//	lowstretch   — low-stretch spanning forest + retained hierarchy;
//	               the queryable app (dist, cluster, same ops). With
//	               "weighted": true it runs the AKPW weighted forest on
//	               the registered graph's weights (dist queries only).
//	blocks       — Linial–Saks block decomposition (stats only).
//	connectivity — LDD-contraction connected components (stats only).
//
// Beta is the per-level decomposition parameter in (0, 1); Seed fixes all
// randomness.
type buildRequest struct {
	App      string  `json:"app"`
	Weighted bool    `json:"weighted,omitempty"`
	Beta     float64 `json:"beta"`
	Seed     uint64  `json:"seed"`
}

// validApps mirrors the cmd/mpx enum-validation idiom: an unknown app is
// a typed 400 listing the valid set, never a silent default.
var validApps = map[string]bool{"lowstretch": true, "blocks": true, "connectivity": true}

// validate checks the request against the registered graph; it returns
// (status, kind, message) with status 0 on success.
func (req *buildRequest) validate(e *entry) (int, string, string) {
	if !validApps[req.App] {
		return http.StatusBadRequest, kindBadRequest,
			"unknown app " + quoted(req.App) + " (valid: blocks, connectivity, lowstretch)"
	}
	if !core.ValidBeta(req.Beta) {
		return http.StatusBadRequest, kindBadRequest, "beta must be in (0, 1)"
	}
	if req.Weighted {
		if req.App != "lowstretch" {
			return http.StatusBadRequest, kindBadRequest,
				"weighted builds support app lowstretch only (got " + quoted(req.App) + ")"
		}
		if e.wg == nil {
			return http.StatusBadRequest, kindBadRequest,
				"graph " + fpHex(e.fp) + " carries no weights; register a weighted snapshot or DIMACS file for weighted builds"
		}
	}
	return 0, "", ""
}

func quoted(s string) string {
	const cap = 64
	if len(s) > cap {
		s = s[:cap] + "…"
	}
	return `"` + s + `"`
}

func (req *buildRequest) key() buildKey {
	return newBuildKey(req.App, req.Weighted, req.Seed, req.Beta)
}

// built is a retained build: its exact response body, which build
// requests for the same key hit, the oracles answering queries against
// it, and the vertex/level bounds queries are validated against.
type built struct {
	key    buildKey
	body   []byte
	n      int // base-graph vertex count
	levels int // membership levels (0 when no hierarchy is retained)
	dist   *oracle.DistanceOracle
	wdist  *oracle.WeightedDistanceOracle
	member *oracle.MembershipOracle
}

// levelStatJSON is a deterministic subset of hier.LevelStat: the integer
// shape fields (and their exact ratio) are bit-identical across worker
// counts and directions. The weighted float aggregates depend on the
// worker count in their last bits (hier.LevelStat docs) and are
// deliberately NOT served — response bodies must be byte-identical at any
// worker count. Round counts are deterministic but not served either.
type levelStatJSON struct {
	Level       int     `json:"level"`
	N           int     `json:"n"`
	M           int64   `json:"m"`
	Clusters    int     `json:"clusters"`
	CutEdges    int64   `json:"cutEdges"`
	CutFraction float64 `json:"cutFraction"`
	QuotientN   int     `json:"quotientN"`
}

func statsJSON(stats []hier.LevelStat) []levelStatJSON {
	out := make([]levelStatJSON, 0, len(stats))
	for _, st := range stats {
		out = append(out, levelStatJSON{
			Level:       st.Level,
			N:           st.N,
			M:           st.M,
			Clusters:    st.Clusters,
			CutEdges:    st.CutEdges,
			CutFraction: st.CutFraction,
			QuotientN:   st.QuotientN,
		})
	}
	return out
}

// buildResponse is the POST .../build body: the echoed configuration, the
// per-level stats, and the decomposition fingerprint — an FNV-1a fold
// over the full decomposition output (tree edges and weight bits, block
// structure, or component labels), the same quantity the golden
// determinism suites pin.
type buildResponse struct {
	Graph       string          `json:"graph"`
	App         string          `json:"app"`
	Weighted    bool            `json:"weighted"`
	Beta        float64         `json:"beta"`
	Seed        uint64          `json:"seed"`
	Levels      int             `json:"levels"`
	TreeEdges   int             `json:"treeEdges,omitempty"`   // lowstretch
	Blocks      int             `json:"blocks,omitempty"`      // blocks
	Components  int             `json:"components,omitempty"`  // connectivity
	QueryLevels int             `json:"queryLevels,omitempty"` // membership levels servable by cluster/same ops
	Fingerprint string          `json:"fingerprint"`
	Stats       []levelStatJSON `json:"stats"`
}

// handleBuild serves POST /v1/graphs/{fp}/build: retained builds first
// (hits return the stored bytes with zero compute and no admission slot),
// then admission control, then the build under the request context plus
// the server's build deadline. A successful build is retained on the
// entry with its oracles and its exact response bytes, so it lives and
// dies with the registered graph.
func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request, fp uint64) {
	e := s.reg.acquire(fp)
	if e == nil {
		writeError(w, http.StatusNotFound, kindNotFound, "graph %s is not registered", fpHex(fp))
		return
	}
	defer s.reg.release(e)
	var req buildRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	if code, kind, msg := req.validate(e); code != 0 {
		writeError(w, code, kind, "%s", msg)
		return
	}
	if bt := e.getBuilt(req.key()); bt != nil {
		w.Header().Set("X-Mpxd-Cache", "hit")
		writeJSON(w, http.StatusOK, bt.body)
		return
	}
	select {
	case s.buildSem <- struct{}{}:
	default:
		writeError(w, http.StatusTooManyRequests, kindOverloaded,
			"build admission budget exhausted (%d in flight); retry after the current builds drain", cap(s.buildSem))
		return
	}
	defer func() { <-s.buildSem }()
	if s.buildGate != nil {
		s.buildGate()
	}
	ctx := r.Context()
	if s.timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, s.timeout)
		defer cancel()
		ctx = tctx
	}
	bt, resp, err := s.runBuild(ctx, e, &req)
	if err != nil {
		writeBuildError(w, err)
		return
	}
	bt.body = marshalBody(resp)
	e.putBuilt(bt)
	w.Header().Set("X-Mpxd-Cache", "miss")
	writeJSON(w, http.StatusOK, bt.body)
}

// runBuild computes one build. All-or-nothing: on any error (cancellation
// included) nothing has been retained anywhere — the engines guarantee no
// partial result and the caller retains nothing on the entry. The
// recover mirrors the engine entry points' own (hier.BuildHierarchy and
// friends): a contained worker panic re-raised outside an engine's recover
// (oracle construction runs pool kernels after the build proper) still
// comes back as an error, typed 503.
func (s *Server) runBuild(ctx context.Context, e *entry, req *buildRequest) (bt *built, resp *buildResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			bt, resp, err = nil, nil, parallel.Recovered(r)
		}
	}()
	resp = &buildResponse{
		Graph:    fpHex(e.fp),
		App:      req.App,
		Weighted: req.Weighted,
		Beta:     req.Beta,
		Seed:     req.Seed,
	}
	bt = &built{key: req.key(), n: e.g.NumVertices()}
	switch {
	case req.Weighted:
		// Weighted AKPW forest; the hierarchy derives each level's
		// Δ-stepping bucket width as 1/β_l.
		wt, err := lowstretch.BuildWeightedPoolCtx(ctx, s.pool, e.wg, req.Beta, req.Seed, s.workers, core.DirectionAuto)
		if err != nil {
			return nil, nil, err
		}
		bt.wdist = oracle.NewWeightedDistance(wt, s.pool, s.workers)
		resp.Levels = wt.Levels
		resp.TreeEdges = len(wt.Edges)
		resp.Fingerprint = fpHex(weightedTreeFingerprint(wt))
		resp.Stats = statsJSON(wt.Stats)
	case req.App == "lowstretch":
		inc, err := lowstretch.BuildIncrementalPoolCtx(ctx, s.pool, e.g, req.Beta, req.Seed, s.workers, core.DirectionAuto)
		if err != nil {
			return nil, nil, err
		}
		t := inc.Tree()
		bt.dist = oracle.NewDistance(t, s.pool, s.workers)
		bt.member = oracle.NewMembership(inc.Hierarchy(), s.pool, s.workers)
		bt.levels = bt.member.Levels()
		resp.Levels = t.Levels
		resp.TreeEdges = len(t.Edges)
		resp.QueryLevels = bt.levels
		resp.Fingerprint = fpHex(treeFingerprint(t))
		resp.Stats = statsJSON(t.Stats)
	case req.App == "blocks":
		bd, err := blocks.DecomposePoolCtx(ctx, s.pool, e.g, req.Beta, req.Seed, 0, s.workers, core.DirectionAuto)
		if err != nil {
			return nil, nil, err
		}
		resp.Levels = len(bd.Stats)
		resp.Blocks = bd.NumBlocks()
		resp.Fingerprint = fpHex(blocksFingerprint(bd))
		resp.Stats = statsJSON(bd.Stats)
	case req.App == "connectivity":
		cr, err := connectivity.ComponentsPoolCtx(ctx, s.pool, e.g, req.Beta, req.Seed, s.workers, core.DirectionAuto)
		if err != nil {
			return nil, nil, err
		}
		resp.Levels = len(cr.Stats)
		resp.Components = cr.Components
		resp.Fingerprint = fpHex(connectivityFingerprint(cr))
		resp.Stats = statsJSON(cr.Stats)
	default:
		panic("unreachable: app validated against validApps")
	}
	return bt, resp, nil
}

// treeFingerprint folds the low-stretch forest's full edge structure, the
// same shape the golden direction suites pin.
func treeFingerprint(t *lowstretch.Tree) uint64 {
	h := fnvU64(fnvOffset, uint64(t.Levels))
	for _, e := range t.Edges {
		h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
	}
	return h
}

func weightedTreeFingerprint(t *lowstretch.WeightedTree) uint64 {
	h := fnvU64(fnvOffset, uint64(t.Levels))
	for _, e := range t.Edges {
		h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
		h = fnvU64(h, math.Float64bits(e.W))
	}
	return h
}

func blocksFingerprint(bd *blocks.Decomposition) uint64 {
	h := fnvU64(fnvOffset, uint64(len(bd.Blocks)))
	for _, b := range bd.Blocks {
		h = fnvU64(h, uint64(len(b.Edges))<<32|uint64(uint32(b.MaxComponentRadius)))
		h = fnvU64(h, uint64(b.Clusters))
		for _, e := range b.Edges {
			h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
		}
	}
	return h
}

func connectivityFingerprint(cr *connectivity.Result) uint64 {
	h := fnvU64(fnvOffset, uint64(cr.Components))
	for _, l := range cr.Label {
		h = fnvU64(h, uint64(l))
	}
	return h
}
