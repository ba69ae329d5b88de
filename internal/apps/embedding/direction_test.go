package embedding

import (
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// fingerprint hashes the full hierarchy: every level's assignment array
// and edge length.
func fingerprint(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:8])
	}
	put32(uint32(t.Levels))
	for l, assign := range t.assignment {
		put64(math.Float64bits(t.length[l]))
		for _, a := range assign {
			put32(a)
		}
	}
	return h.Sum64()
}

var allDirections = []core.Direction{
	core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto,
}

// TestBuildPoolDirectionsBitIdentical: the hierarchical embedding must be
// bit-identical at workers 1/2/8 and under push/pull/auto — Partition is,
// and the sort-based RefineAssignment kernel is deterministic.
func TestBuildPoolDirectionsBitIdentical(t *testing.T) {
	gs := map[string]*graph.Graph{
		"grid": graph.Grid2D(15, 18),
		"gnm":  graph.GNM(400, 1600, 13),
	}
	for name, g := range gs {
		for _, seed := range []uint64{1, 42} {
			base, err := BuildPoolCtx(nil, nil, g, 0, seed, 1, core.DirectionForcePush)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(base)
			for _, dir := range allDirections {
				for _, w := range []int{1, 2, 8} {
					tr, err := BuildPoolCtx(nil, nil, g, 0, seed, w, dir)
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

// TestBuildGolden pins one fixed embedding to a golden fingerprint across
// directions and worker counts.
func TestBuildGolden(t *testing.T) {
	const golden = uint64(0x3026ae0c7e15c16c)
	g := graph.Grid2D(12, 14)
	for _, dir := range allDirections {
		for _, w := range []int{1, 2, 8} {
			tr, err := BuildPoolCtx(nil, nil, g, 0, 5, w, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(tr); got != golden {
				t.Fatalf("dir=%v workers=%d: fingerprint %#x want %#x", dir, w, got, golden)
			}
		}
	}
}
