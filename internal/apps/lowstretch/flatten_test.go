package lowstretch

import (
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/xrand"
)

// legacySparse rebuilds the LCA sparse table exactly as the pre-flattening
// [][]uint32 implementation did: one row slice per level, serial min-scan.
// The flattened stride-indexed table must carry the identical values —
// this is the bit-identity contract of the E25 refactor (golden tree
// fingerprints are untouched because the tree itself never changes; this
// test pins the index layout change itself).
func legacySparse(euler []uint32, depth []int32) [][]uint32 {
	m := len(euler)
	if m == 0 {
		return nil
	}
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	sparse := make([][]uint32, levels)
	sparse[0] = make([]uint32, m)
	copy(sparse[0], euler)
	for k := 1; k < levels; k++ {
		span := 1 << k
		row := make([]uint32, m-span+1)
		prev := sparse[k-1]
		for i := range row {
			a, b := prev[i], prev[i+span/2]
			if depth[a] <= depth[b] {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		sparse[k] = row
	}
	return sparse
}

// legacyLCA answers an LCA query against the legacy row-slice table with
// the original loop-computed log.
func legacyLCA(t *Tree, sparse [][]uint32, u, v uint32) uint32 {
	a, b := t.order[u], t.order[v]
	if a > b {
		a, b = b, a
	}
	span := int(b - a + 1)
	k := 0
	for 1<<(k+1) <= span {
		k++
	}
	x, y := sparse[k][a], sparse[k][int(b)-(1<<k)+1]
	if t.depth[x] <= t.depth[y] {
		return x
	}
	return y
}

func checkFlatAgainstLegacy(t *testing.T, tr *Tree, seed uint64) {
	t.Helper()
	ref := legacySparse(tr.euler, tr.depth)
	m := len(tr.euler)
	if tr.sstride != m {
		t.Fatalf("sstride=%d, euler length %d", tr.sstride, m)
	}
	if len(ref) > 0 && len(tr.sparse) != len(ref)*m {
		t.Fatalf("flat table has %d entries, want %d rows x stride %d", len(tr.sparse), len(ref), m)
	}
	for k, row := range ref {
		flat := tr.sparse[k*m : k*m+len(row)]
		for i := range row {
			if flat[i] != row[i] {
				t.Fatalf("row %d entry %d: flat=%d legacy=%d", k, i, flat[i], row[i])
			}
		}
	}
	// Query cross-check on random pairs: the bits.Len-based k and flat
	// indexing must answer exactly what the legacy table answered.
	n := tr.G.NumVertices()
	rng := xrand.NewSplitMix64(seed)
	for q := 0; q < 2000; q++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if tr.comp[u] != tr.comp[v] {
			continue
		}
		if got, want := tr.LCA(u, v), legacyLCA(tr, ref, u, v); got != want {
			t.Fatalf("LCA(%d,%d)=%d, legacy=%d", u, v, got, want)
		}
	}
}

func TestFlattenedSparseTableBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(40, 37)},
		{"gnm", graph.GNM(3000, 9000, 7)},
		{"path", graph.Path(513)},
		{"forest", graph.GNM(800, 500, 3)}, // disconnected: multiple components
		{"single", graph.Path(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := BuildPoolCtx(nil, nil, tc.g, 0.2, 5, 4, core.DirectionAuto)
			if err != nil {
				t.Fatal(err)
			}
			checkFlatAgainstLegacy(t, tr, 11)
		})
	}
}

func TestFlattenedSparseTableWeightedBitIdentical(t *testing.T) {
	g := graph.GNM(2000, 6000, 9)
	wg := graph.RandomWeights(g, 1, 16, 4)
	tr, err := BuildWeightedPoolCtx(nil, nil, wg, 0.3, 2, 4, core.DirectionAuto)
	if err != nil {
		t.Fatal(err)
	}
	ref := legacySparse(tr.euler, tr.depth)
	m := len(tr.euler)
	for k, row := range ref {
		flat := tr.sparse[k*m : k*m+len(row)]
		for i := range row {
			if flat[i] != row[i] {
				t.Fatalf("weighted row %d entry %d: flat=%d legacy=%d", k, i, flat[i], row[i])
			}
		}
	}
	// LCA parity through the public query path.
	rng := xrand.NewSplitMix64(13)
	n := tr.G.NumVertices()
	for q := 0; q < 2000; q++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if tr.comp[u] != tr.comp[v] {
			continue
		}
		a, b := tr.order[u], tr.order[v]
		if a > b {
			a, b = b, a
		}
		span := int(b - a + 1)
		k := 0
		for 1<<(k+1) <= span {
			k++
		}
		x, y := ref[k][a], ref[k][int(b)-(1<<k)+1]
		want := x
		if tr.depth[y] < tr.depth[x] {
			want = y
		}
		if got := tr.LCA(u, v); got != want {
			t.Fatalf("weighted LCA(%d,%d)=%d, legacy=%d", u, v, got, want)
		}
	}
}

// TestSparseRebuildAtWorkerCounts pins the parallel row sweeps: the flat
// table is bit-identical at workers 1/2/8 (each row element depends only
// on the previous row, so the block decomposition cannot matter — this
// guards against someone introducing cross-element state).
func TestSparseRebuildAtWorkerCounts(t *testing.T) {
	g := graph.Grid2D(50, 31)
	var ref []uint32
	for _, w := range []int{1, 2, 8} {
		tr, err := BuildPoolCtx(nil, nil, g, 0.15, 3, w, core.DirectionAuto)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]uint32(nil), tr.sparse...)
			continue
		}
		if len(tr.sparse) != len(ref) {
			t.Fatalf("workers=%d: table length %d, want %d", w, len(tr.sparse), len(ref))
		}
		for i := range ref {
			if tr.sparse[i] != ref[i] {
				t.Fatalf("workers=%d: table diverges at %d", w, i)
			}
		}
	}
}
