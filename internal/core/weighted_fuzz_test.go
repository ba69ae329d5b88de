package core

import (
	"math"
	"testing"

	"mpx/internal/graph"
)

// FuzzPartitionWeighted checks the structural invariants of the weighted
// parallel partition on arbitrary weighted graphs and worker counts: every
// vertex is claimed exactly once (Center is a total function into
// self-claiming centers), centers claim themselves, every cluster radius
// respects its center's shift bound, distances are never NaN/Inf, and the
// output and Rounds are bit-identical to the workers=1 run of the same
// instance.
func FuzzPartitionWeighted(f *testing.F) {
	f.Add(uint16(40), uint16(80), uint64(1), byte(20), byte(0))
	f.Add(uint16(3), uint16(1), uint64(7), byte(90), byte(1))
	f.Add(uint16(200), uint16(900), uint64(42), byte(5), byte(2))
	f.Add(uint16(64), uint16(0), uint64(3), byte(50), byte(5)) // edgeless
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64, betaRaw, modeRaw byte) {
		n := int(nRaw%300) + 2
		maxM := int64(n) * int64(n-1) / 4
		if maxM < 1 {
			maxM = 1
		}
		m := int64(mRaw) % maxM
		g := graph.GNM(n, m, seed)
		wg := graph.RandomWeights(g, 0.25, 8, seed^0x9e3779b97f4a7c15)
		beta := 0.02 + float64(betaRaw%96)/100
		workers := 1 + int(modeRaw%8)
		d, err := PartitionWeightedParallel(wg, beta, 0, Options{Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Center) != n || len(d.Dist) != n || len(d.Parent) != n {
			t.Fatalf("output arrays have wrong length for n=%d", n)
		}
		for v := 0; v < n; v++ {
			c := d.Center[v]
			if int(c) >= n {
				t.Fatalf("vertex %d claimed by out-of-range center %d", v, c)
			}
			if d.Center[c] != c {
				t.Fatalf("vertex %d claimed by %d, which is not its own center", v, c)
			}
			if uint32(v) == c && (d.Parent[v] != uint32(v) || d.Dist[v] != 0) {
				t.Fatalf("center %d has parent %d dist %g", v, d.Parent[v], d.Dist[v])
			}
			if math.IsNaN(d.Dist[v]) || math.IsInf(d.Dist[v], 0) {
				t.Fatalf("vertex %d has non-finite distance %g", v, d.Dist[v])
			}
			if d.Dist[v] < 0 {
				t.Fatalf("vertex %d has negative distance %g", v, d.Dist[v])
			}
			if d.Dist[v] > d.Shifts[c]+1e-9 {
				t.Fatalf("vertex %d at distance %g exceeds center %d's shift %g (radius bound)",
					v, d.Dist[v], c, d.Shifts[c])
			}
		}
		// Full structural validation: tree edges exist, distances are
		// consistent along parents.
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		// Cross-worker determinism: the same instance at workers=1 must
		// reproduce the output and the round count bit for bit.
		ref, err := PartitionWeightedParallel(wg, beta, 0, Options{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameWeighted(ref, d) {
			t.Fatalf("workers=%d diverges from workers=1 (Rounds %d vs %d)", workers, d.Rounds, ref.Rounds)
		}
	})
}
