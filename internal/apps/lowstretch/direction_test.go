package lowstretch

import (
	"hash/fnv"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// fingerprint hashes the complete forest output — level count and the
// exact tree edge sequence — with FNV-1a.
func fingerprint(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put32(uint32(t.Levels))
	for _, e := range t.Edges {
		put32(e.U)
		put32(e.V)
	}
	return h.Sum64()
}

func directionGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid": graph.Grid2D(18, 22),
		"gnm":  graph.GNM(500, 2000, 11),
	}
}

var allDirections = []core.Direction{
	core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto,
}

// TestBuildPoolDirectionsBitIdentical is the hierarchy determinism proof
// for the low-stretch tree: the forest must be bit-identical at workers
// 1/2/8 and under push/pull/auto, because Partition is and every engine
// kernel (classification, contraction, annotation) is deterministic.
func TestBuildPoolDirectionsBitIdentical(t *testing.T) {
	for name, g := range directionGraphs() {
		for _, seed := range []uint64{1, 42} {
			base, err := BuildPoolCtx(nil, nil, g, 0.25, seed, 1, core.DirectionForcePush)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(base)
			for _, dir := range allDirections {
				for _, w := range []int{1, 2, 8} {
					tr, err := BuildPoolCtx(nil, nil, g, 0.25, seed, w, dir)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(tr); got != want {
						t.Fatalf("%s seed=%d dir=%v workers=%d: fingerprint %#x want %#x",
							name, seed, dir, w, got, want)
					}
				}
			}
		}
	}
}

// TestBuildGolden pins one fixed construction to a golden fingerprint so
// silent cross-version drift of the hierarchy path fails loudly. Update
// the constant only with an intentional, documented change to the engine
// or to Partition's claim resolution.
func TestBuildGolden(t *testing.T) {
	const golden = uint64(0xc7493eeb9d15afe0)
	g := graph.Grid2D(13, 17)
	for _, dir := range allDirections {
		for _, w := range []int{1, 2, 8} {
			tr, err := BuildPoolCtx(nil, nil, g, 0.3, 5, w, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(tr); got != golden {
				t.Fatalf("dir=%v workers=%d: fingerprint %#x want %#x", dir, w, got, golden)
			}
		}
	}
}

// TestBuildMatchesBuildPool checks the default worker count (0 means
// GOMAXPROCS) builds the same forest as an explicit count on the default
// pool.
func TestBuildMatchesBuildPool(t *testing.T) {
	g := graph.GNM(300, 900, 3)
	a, err := BuildPoolCtx(nil, nil, g, 0.2, 9, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPoolCtx(nil, nil, g, 0.2, 9, 4, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("workers=0 and workers=4 builds diverge")
	}
}
