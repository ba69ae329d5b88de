package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
)

// statJSON and buildResp mirror the fields of mpxd's build response that
// the checks compare (docs/mpxd.md).
type statJSON struct {
	Level       int     `json:"level"`
	N           int     `json:"n"`
	M           int64   `json:"m"`
	Clusters    int     `json:"clusters"`
	CutEdges    int64   `json:"cutEdges"`
	CutFraction float64 `json:"cutFraction"`
	QuotientN   int     `json:"quotientN"`
}

type buildResp struct {
	Graph       string     `json:"graph"`
	App         string     `json:"app"`
	Weighted    bool       `json:"weighted"`
	Beta        float64    `json:"beta"`
	Seed        uint64     `json:"seed"`
	Levels      int        `json:"levels"`
	TreeEdges   int        `json:"treeEdges"`
	Blocks      int        `json:"blocks"`
	Components  int        `json:"components"`
	QueryLevels int        `json:"queryLevels"`
	Fingerprint string     `json:"fingerprint"`
	Stats       []statJSON `json:"stats"`
}

// libBuild is an in-process library build of one request, through the
// same entry point mpxd calls.
type libBuild struct {
	inc    *lowstretch.Incremental
	member *oracle.MembershipOracle
	wt     *lowstretch.WeightedTree
	bd     *blocks.Decomposition
	cr     *connectivity.Result
}

// buildLib runs the app entry point for req on the road graph.
func buildLib(pool *parallel.Pool, g *graph.Graph, wg *graph.WeightedGraph, req buildReq) (*libBuild, error) {
	var b libBuild
	var err error
	switch {
	case req.Weighted:
		b.wt, err = lowstretch.BuildWeightedPoolCtx(nil, pool, wg, req.Beta, req.Seed, 0, core.DirectionAuto)
	case req.App == "lowstretch":
		b.inc, err = lowstretch.BuildIncrementalPoolCtx(nil, pool, g, req.Beta, req.Seed, 0, core.DirectionAuto)
	case req.App == "blocks":
		b.bd, err = blocks.DecomposePoolCtx(nil, pool, g, req.Beta, req.Seed, 0, 0, core.DirectionAuto)
	case req.App == "connectivity":
		b.cr, err = connectivity.ComponentsPoolCtx(nil, pool, g, req.Beta, req.Seed, 0, core.DirectionAuto)
	default:
		err = fmt.Errorf("unknown app %q", req.App)
	}
	if err != nil {
		return nil, fmt.Errorf("in-process %s build: %w", req.kind(), err)
	}
	return &b, nil
}

// response projects the library build onto the fields mpxd serves.
func (b *libBuild) response(fp string, req buildReq) buildResp {
	r := buildResp{Graph: fp, App: req.App, Weighted: req.Weighted, Beta: req.Beta, Seed: req.Seed}
	var stats []hier.LevelStat
	switch {
	case b.wt != nil:
		r.Levels, r.TreeEdges, stats = b.wt.Levels, len(b.wt.Edges), b.wt.Stats
		h := fnvU64(fnvOffset, uint64(b.wt.Levels))
		for _, e := range b.wt.Edges {
			h = fnvU64(fnvU64(h, uint64(e.U)<<32|uint64(e.V)), math.Float64bits(e.W))
		}
		r.Fingerprint = fmt.Sprintf("%016x", h)
	case b.inc != nil:
		t := b.inc.Tree()
		r.Levels, r.TreeEdges, stats = t.Levels, len(t.Edges), t.Stats
		if b.member != nil {
			r.QueryLevels = b.member.Levels()
		}
		h := fnvU64(fnvOffset, uint64(t.Levels))
		for _, e := range t.Edges {
			h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
		}
		r.Fingerprint = fmt.Sprintf("%016x", h)
	case b.bd != nil:
		r.Levels, r.Blocks, stats = len(b.bd.Stats), b.bd.NumBlocks(), b.bd.Stats
		h := fnvU64(fnvOffset, uint64(len(b.bd.Blocks)))
		for _, blk := range b.bd.Blocks {
			h = fnvU64(h, uint64(len(blk.Edges))<<32|uint64(uint32(blk.MaxComponentRadius)))
			h = fnvU64(h, uint64(blk.Clusters))
			for _, e := range blk.Edges {
				h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
			}
		}
		r.Fingerprint = fmt.Sprintf("%016x", h)
	case b.cr != nil:
		r.Levels, r.Components, stats = len(b.cr.Stats), b.cr.Components, b.cr.Stats
		h := fnvU64(fnvOffset, uint64(b.cr.Components))
		for _, l := range b.cr.Label {
			h = fnvU64(h, uint64(l))
		}
		r.Fingerprint = fmt.Sprintf("%016x", h)
	}
	for _, st := range stats {
		r.Stats = append(r.Stats, statJSON{Level: st.Level, N: st.N, M: st.M, Clusters: st.Clusters,
			CutEdges: st.CutEdges, CutFraction: st.CutFraction, QuotientN: st.QuotientN})
	}
	return r
}

// checkBuildBody compares a served build body against the in-process
// projection of the same request.
func checkBuildBody(body []byte, want buildResp) error {
	var got buildResp
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding build body: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s seed %d: served levels=%d tree=%d blocks=%d comps=%d fp=%s; library levels=%d tree=%d blocks=%d comps=%d fp=%s",
			want.App, want.Seed, got.Levels, got.TreeEdges, got.Blocks, got.Components, got.Fingerprint,
			want.Levels, want.TreeEdges, want.Blocks, want.Components, want.Fingerprint)
	}
	return nil
}

// queryResp is the part of a query body the checks read.
type queryResp struct {
	Count    int      `json:"count"`
	Dists    []int32  `json:"dists"`
	Clusters []uint32 `json:"clusters"`
	Same     []bool   `json:"same"`
	Checksum string   `json:"checksum"`
}

// batchOut holds the reusable output slices of the oracle batch calls.
type batchOut struct {
	dists    []int32
	clusters []uint32
	same     []bool
}

// run answers q through the oracle *Batch API its op names.
func (b *batchOut) run(q query, do *oracle.DistanceOracle, mo *oracle.MembershipOracle) {
	switch q.Op {
	case "dist":
		b.dists = slices.Grow(b.dists[:0], len(q.Pairs))[:len(q.Pairs)]
		do.DistBatch(q.Pairs, b.dists)
	case "cluster":
		b.clusters = slices.Grow(b.clusters[:0], len(q.Verts))[:len(q.Verts)]
		mo.ClusterBatch(q.Level, q.Verts, b.clusters)
	default:
		b.same = slices.Grow(b.same[:0], len(q.Pairs))[:len(q.Pairs)]
		mo.SameClusterBatch(q.Level, q.Pairs, b.same)
	}
}

// checkQueryBody compares a query body with the oracle *Batch answers to
// q: its count, every answer, and its checksum, which must equal the
// answers folded the way mpxd folds them.
func checkQueryBody(body []byte, q query, do *oracle.DistanceOracle, mo *oracle.MembershipOracle, b *batchOut) error {
	var got queryResp
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	b.run(q, do, mo)
	h := fnvOffset
	var n int
	var same bool
	switch q.Op {
	case "dist":
		for _, d := range b.dists {
			h = fnvU64(h, uint64(uint32(d)))
		}
		n, same = len(b.dists), slices.Equal(got.Dists, b.dists)
	case "cluster":
		for _, c := range b.clusters {
			h = fnvU64(h, uint64(c))
		}
		n, same = len(b.clusters), slices.Equal(got.Clusters, b.clusters)
	default:
		for _, s := range b.same {
			x := uint64(0)
			if s {
				x = 1
			}
			h = fnvU64(h, x)
		}
		n, same = len(b.same), slices.Equal(got.Same, b.same)
	}
	if sum := fmt.Sprintf("%016x", h); got.Count != n || !same || got.Checksum != sum {
		return fmt.Errorf("count %d, checksum %s, answers equal %v; oracle count %d, checksum %s", got.Count, got.Checksum, same, n, sum)
	}
	return nil
}

// FNV-1a over 64-bit words, the fold mpxd's fingerprints and checksums use.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x00000100000001b3
)

func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// fnvBytes is FNV-1a over bytes: the fingerprint of one reply body.
func fnvBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
