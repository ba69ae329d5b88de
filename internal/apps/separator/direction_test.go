package separator

import (
	"hash/fnv"
	"math"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// fingerprint hashes the full separator output, including the pinned
// orderings of all three vertex sets.
func fingerprint(r *Result) uint64 {
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
	for _, s := range [][]uint32{r.Separator, r.SideA, r.SideB} {
		put32(uint32(len(s)))
		for _, v := range s {
			put32(v)
		}
	}
	put64(math.Float64bits(r.Balance))
	put64(math.Float64bits(r.Beta))
	put32(uint32(r.Pieces))
	return h.Sum64()
}

var allDirections = []core.Direction{
	core.DirectionForcePush, core.DirectionForcePull, core.DirectionAuto,
}

// TestFindPoolDirectionsBitIdentical: separator extraction must be
// bit-identical at workers 1/2/8 and under push/pull/auto, on the fixed-β
// and the auto-tuning (β retry) paths.
func TestFindPoolDirectionsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		beta float64
	}{
		{"grid", graph.Grid2D(20, 22), 0.3},
		{"gnm", graph.GNM(500, 800, 3), 0.5},
		{"grid-autotune", graph.Grid2D(24, 24), 0},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 42} {
			base, err := FindPoolCtx(nil, nil, tc.g, tc.beta, 2.0/3, seed, 1, core.DirectionForcePush)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(base)
			for _, dir := range allDirections {
				for _, w := range []int{1, 2, 8} {
					r, err := FindPoolCtx(nil, nil, tc.g, tc.beta, 2.0/3, seed, w, dir)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(r); got != want {
						t.Fatalf("%s seed=%d dir=%v workers=%d: fingerprint %#x want %#x",
							tc.name, seed, dir, w, got, want)
					}
				}
			}
		}
	}
}

// TestFindGolden pins one fixed separator to a golden fingerprint across
// directions and worker counts.
func TestFindGolden(t *testing.T) {
	const golden = uint64(0x5bf539e6e3a21c23)
	g := graph.Grid2D(20, 20)
	for _, dir := range allDirections {
		for _, w := range []int{1, 2, 8} {
			r, err := FindPoolCtx(nil, nil, g, 0.3, 2.0/3, 2, w, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(r); got != golden {
				t.Fatalf("dir=%v workers=%d: fingerprint %#x want %#x", dir, w, got, golden)
			}
		}
	}
}

// TestFindOutputOrderingPinned is the regression test for the output
// contract: all three vertex sets come back sorted by ascending vertex id
// — the ordering downstream consumers may rely on — and repeated runs
// (including the auto-tune retry path, which reuses one scratch set
// across β attempts) reproduce it exactly.
func TestFindOutputOrderingPinned(t *testing.T) {
	g := graph.Grid2D(24, 24)
	// β=0 auto-tunes: the first attempts produce one giant piece and fail
	// the balance bound, so the retry loop reuses the scratch repeatedly
	// before succeeding.
	r, err := FindPoolCtx(nil, nil, g, 0, 0.6, 7, 0, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if r.Beta <= 0.01 {
		t.Fatalf("auto-tune did not retry (winning beta %g); test needs the retry path", r.Beta)
	}
	for name, s := range map[string][]uint32{"Separator": r.Separator, "SideA": r.SideA, "SideB": r.SideB} {
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				t.Fatalf("%s not strictly ascending at %d: %d then %d", name, i, s[i-1], s[i])
			}
		}
	}
	want := fingerprint(r)
	for run := 0; run < 3; run++ {
		again, err := FindPoolCtx(nil, nil, g, 0, 0.6, 7, 8, core.DirectionForcePull)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(again) != want {
			t.Fatalf("run %d: retry path not reproducible", run)
		}
	}
}
