package blocks

import (
	"hash/fnv"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// fingerprint hashes the complete block structure: per block the edge
// sequence, component radius bound and contributing cluster count.
func fingerprint(bd *Decomposition) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put32(uint32(len(bd.Blocks)))
	for _, b := range bd.Blocks {
		put32(uint32(len(b.Edges)))
		put32(uint32(b.MaxComponentRadius))
		put32(uint32(b.Clusters))
		for _, e := range b.Edges {
			put32(e.U)
			put32(e.V)
		}
	}
	return h.Sum64()
}

var allDirections = []core.Direction{
	core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto,
}

// TestDecomposePoolDirectionsBitIdentical: the Linial–Saks iteration on
// the engine's residual mode must produce bit-identical blocks at workers
// 1/2/8 and under push/pull/auto.
func TestDecomposePoolDirectionsBitIdentical(t *testing.T) {
	gs := map[string]*graph.Graph{
		"grid": graph.Grid2D(16, 20),
		"gnm":  graph.GNM(400, 1400, 7),
	}
	for name, g := range gs {
		for _, seed := range []uint64{1, 42} {
			base, err := DecomposePoolCtx(nil, nil, g, 0.5, seed, 0, 1, core.DirectionForcePush)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(base)
			for _, dir := range allDirections {
				for _, w := range []int{1, 2, 8} {
					bd, err := DecomposePoolCtx(nil, nil, g, 0.5, seed, 0, w, dir)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(bd); got != want {
						t.Fatalf("%s seed=%d dir=%v workers=%d: fingerprint %#x want %#x",
							name, seed, dir, w, got, want)
					}
				}
			}
		}
	}
}

// TestDecomposeGolden pins one fixed decomposition to a golden
// fingerprint across every direction and worker count.
func TestDecomposeGolden(t *testing.T) {
	const golden = uint64(0x77c84a23e69d6b2c)
	g := graph.Torus2D(14, 15)
	for _, dir := range allDirections {
		for _, w := range []int{1, 2, 8} {
			bd, err := DecomposePoolCtx(nil, nil, g, 0.5, 5, 0, w, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(bd); got != golden {
				t.Fatalf("dir=%v workers=%d: fingerprint %#x want %#x", dir, w, got, golden)
			}
		}
	}
}
