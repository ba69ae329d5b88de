package server

import (
	"bytes"
	"math"
	"net/http"
	"sync"

	"mpx/internal/oracle"
	"mpx/internal/parallel"
)

// queryRequest is the POST .../query body as encoding/json reads it: the
// target of decodeStrict, and the reference decodeFast must match. The
// build-configuration fields (app/weighted/beta/seed) select which
// retained build answers — a build must have been POSTed first; queries
// never build implicitly, so their latency is always oracle-lookup
// latency.
//
// Op selects the oracle:
//
//	dist    — tree distance per pair (int32 for unweighted builds,
//	          float64 for weighted; -1 = different components)
//	cluster — level-l cluster id per vertex (unweighted lowstretch only)
//	same    — same-cluster bit per pair at level l (ditto)
//
// Following the cmd/mpx flag-audit rule, a field the op would silently
// ignore is a hard 400: dist takes pairs and no level, cluster takes
// verts and a level, same takes pairs and a level.
type queryRequest struct {
	App      string     `json:"app"`
	Weighted bool       `json:"weighted,omitempty"`
	Beta     float64    `json:"beta"`
	Seed     uint64     `json:"seed"`
	Op       string     `json:"op"`
	Level    *int       `json:"level,omitempty"`
	Pairs    [][]uint32 `json:"pairs,omitempty"`
	Verts    []uint32   `json:"verts,omitempty"`
}

// queryResponse carries exactly one result array (matching op) plus an
// FNV-1a checksum over the result bits, so two servers (or one server
// across a restart) can be compared on the body bytes alone. Its
// json.Marshal bytes are the reference appendQueryResponse must match.
type queryResponse struct {
	Graph    string    `json:"graph"`
	Op       string    `json:"op"`
	Level    *int      `json:"level,omitempty"`
	Count    int       `json:"count"`
	Dists    []int32   `json:"dists,omitempty"`
	WDists   []float64 `json:"wdists,omitempty"`
	Clusters []uint32  `json:"clusters,omitempty"`
	Same     []bool    `json:"same,omitempty"`
	Checksum string    `json:"checksum"`
}

// queryScratch is the memory a query request reuses from an earlier
// one: the body, the decoded query, the answers and the response bytes.
type queryScratch struct {
	body     bytes.Buffer
	q        query
	dists    []int32
	wdists   []float64
	clusters []uint32
	same     []bool
	out      []byte
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// handleQuery serves POST /v1/graphs/{fp}/query against a previously
// built hierarchy. Queries are pure reads on immutable oracles — no
// admission slot, safe under unbounded concurrency (docs/queries.md).
//
// The body is decoded by decodeFast when it has the one well-formed
// shape, and by decodeStrict otherwise; the response is written by
// appendQueryResponse. decodeFast decodes what it accepts as
// encoding/json does, and appendQueryResponse writes json.Marshal's
// bytes; FuzzQueryCodec checks both.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, fp uint64) {
	e := s.reg.acquire(fp)
	if e == nil {
		writeError(w, http.StatusNotFound, kindNotFound, "graph %s is not registered", fpHex(fp))
		return
	}
	defer s.reg.release(e)
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)
	if !s.readBody(w, r, &sc.body) {
		return
	}
	req := &sc.q
	if !req.decodeFast(sc.body.Bytes()) {
		var wire queryRequest
		if err := decodeStrict(sc.body.Bytes(), &wire); err != nil {
			writeError(w, http.StatusBadRequest, kindBadRequest, "%v", err)
			return
		}
		req.fromWire(&wire)
	}
	if req.App != "lowstretch" {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"queries serve lowstretch builds only (got app %s)", quoted(req.App))
		return
	}
	switch req.Op {
	case "dist", "cluster", "same":
	default:
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"unknown op %s (valid: dist, cluster, same)", quoted(req.Op))
		return
	}
	bt := e.getBuilt(newBuildKey(req.App, req.Weighted, req.Seed, req.Beta))
	if bt == nil {
		writeError(w, http.StatusNotFound, kindNotFound,
			"no built hierarchy for this configuration on graph %s; POST /v1/graphs/%s/build first",
			fpHex(fp), fpHex(fp))
		return
	}
	resp := &queryResponse{Graph: fpHex(fp), Op: req.Op, Level: req.Level}
	n := bt.n
	switch req.Op {
	case "dist":
		if req.Level != nil {
			writeError(w, http.StatusBadRequest, kindBadRequest, "dist queries take no level; drop it")
			return
		}
		pairs, ok := s.takePairs(w, req, n)
		if !ok {
			return
		}
		resp.Count = len(pairs)
		if bt.wdist != nil {
			out := parallel.Grow(sc.wdists, len(pairs))
			sc.wdists = out
			bt.wdist.DistBatch(pairs, out)
			h := fnvOffset
			for _, d := range out {
				h = fnvU64(h, math.Float64bits(d))
			}
			resp.WDists = out
			resp.Checksum = fpHex(h)
		} else {
			out := parallel.Grow(sc.dists, len(pairs))
			sc.dists = out
			bt.dist.DistBatch(pairs, out)
			h := fnvOffset
			for _, d := range out {
				h = fnvU64(h, uint64(uint32(d)))
			}
			resp.Dists = out
			resp.Checksum = fpHex(h)
		}
	case "cluster":
		level, ok := s.takeLevel(w, req, bt)
		if !ok {
			return
		}
		if req.hasPairs {
			writeError(w, http.StatusBadRequest, kindBadRequest, "cluster queries take verts, not pairs")
			return
		}
		if len(req.Verts) == 0 || len(req.Verts) > s.maxBatch {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"verts must hold between 1 and %d vertices, got %d", s.maxBatch, len(req.Verts))
			return
		}
		for i, v := range req.Verts {
			if int(v) >= n {
				writeError(w, http.StatusBadRequest, kindBadRequest,
					"verts[%d] = %d out of range (n=%d)", i, v, n)
				return
			}
		}
		out := parallel.Grow(sc.clusters, len(req.Verts))
		sc.clusters = out
		bt.member.ClusterBatch(level, req.Verts, out)
		h := fnvOffset
		for _, c := range out {
			h = fnvU64(h, uint64(c))
		}
		resp.Count = len(req.Verts)
		resp.Clusters = out
		resp.Checksum = fpHex(h)
	case "same":
		level, ok := s.takeLevel(w, req, bt)
		if !ok {
			return
		}
		pairs, ok := s.takePairs(w, req, n)
		if !ok {
			return
		}
		out := parallel.Grow(sc.same, len(pairs))
		sc.same = out
		bt.member.SameClusterBatch(level, pairs, out)
		h := fnvOffset
		for _, b := range out {
			x := uint64(0)
			if b {
				x = 1
			}
			h = fnvU64(h, x)
		}
		resp.Count = len(pairs)
		resp.Same = out
		resp.Checksum = fpHex(h)
	}
	body, ok := appendQueryResponse(sc.out[:0], resp)
	if !ok {
		body = marshalBody(resp)
	}
	sc.out = body
	writeJSON(w, http.StatusOK, body)
}

// takePairs validates the query's pairs; a false return means the error
// response has been written. Per index, a pair that is not [u, v] is
// reported before a vertex out of range.
func (s *Server) takePairs(w http.ResponseWriter, req *query, n int) ([]oracle.Pair, bool) {
	if req.hasVerts {
		writeError(w, http.StatusBadRequest, kindBadRequest, "%s queries take pairs, not verts", req.Op)
		return nil, false
	}
	if len(req.Pairs) == 0 || len(req.Pairs) > s.maxBatch {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"pairs must hold between 1 and %d pairs, got %d", s.maxBatch, len(req.Pairs))
		return nil, false
	}
	for i, p := range req.Pairs {
		if i == req.badPair {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"pairs[%d] must be [u, v], got %d elements", i, req.badArity)
			return nil, false
		}
		if int(p.U) >= n || int(p.V) >= n {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"pairs[%d] = [%d, %d] out of range (n=%d)", i, p.U, p.V, n)
			return nil, false
		}
	}
	return req.Pairs, true
}

// takeLevel validates the membership level of a cluster/same query
// against the retained hierarchy's level count.
func (s *Server) takeLevel(w http.ResponseWriter, req *query, bt *built) (int, bool) {
	if bt.member == nil {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"%s queries need an unweighted lowstretch build (weighted builds retain no hierarchy)", req.Op)
		return 0, false
	}
	if req.Level == nil {
		writeError(w, http.StatusBadRequest, kindBadRequest, "%s queries require a level in [0, %d)", req.Op, bt.levels)
		return 0, false
	}
	l := *req.Level
	if l < 0 || l >= bt.levels {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"level %d out of range (levels=%d)", l, bt.levels)
		return 0, false
	}
	return l, true
}
