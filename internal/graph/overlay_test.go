package graph

import (
	"slices"
	"sync"
	"testing"
)

// TestOverlayConcurrentFirstUse has 8 goroutines make the first reads of
// one fresh overlay graph at once, the way pool workers share a graph
// inside a kernel: each runs Offsets, Adjacency, a Neighbors and a Degree
// sweep, and Fingerprint, starting at a different one. The flat CSR must
// be spliced once — every goroutine sees the same arrays — and every
// answer must match the FromEdgesDedup rebuild, whether it was read
// through the overlay or from the spliced CSR. The CI chaos step runs it
// under -race ten times.
func TestOverlayConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	base := Grid2D(60, 50)
	b := Batch{Insert: []Edge{{0, 2999}, {17, 1400}}, Delete: []Edge{{0, 1}, {1500, 1501}}}
	ref := applyReference(t, base, b)
	refFP := ref.Fingerprint()
	n := uint32(ref.NumVertices())
	type seen struct {
		off *int64
		adj *uint32
		fp  uint64
	}
	for trial := 0; trial < 10; trial++ {
		g, _, err := ApplyBatch(base, b)
		if err != nil {
			t.Fatal(err)
		}
		if g.ov == nil {
			t.Fatal("a four-edge batch on a 3000-vertex grid was spliced, not left as an overlay")
		}
		out := make([]seen, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k := 0; k < goroutines; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var s seen
				steps := []func(){
					func() { s.off = &g.Offsets()[0] },
					func() { s.adj = &g.Adjacency()[0] },
					func() {
						for v := uint32(0); v < n; v++ {
							if !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) {
								t.Errorf("goroutine %d: Neighbors(%d) = %v, want %v", k, v, g.Neighbors(v), ref.Neighbors(v))
								return
							}
						}
					},
					func() {
						for v := uint32(0); v < n; v++ {
							if g.Degree(v) != ref.Degree(v) {
								t.Errorf("goroutine %d: Degree(%d) = %d, want %d", k, v, g.Degree(v), ref.Degree(v))
								return
							}
						}
					},
					func() { s.fp = g.Fingerprint() },
				}
				<-start
				for i := range steps {
					steps[(k+i)%len(steps)]()
				}
				out[k] = s
			}(k)
		}
		close(start)
		wg.Wait()
		for k, s := range out {
			if s.off != out[0].off || s.adj != out[0].adj {
				t.Fatalf("trial %d: goroutine %d saw different CSR arrays than goroutine 0: the flat CSR was built twice", trial, k)
			}
			if s.fp != refFP {
				t.Fatalf("trial %d: goroutine %d: fingerprint %016x, want %016x", trial, k, s.fp, refFP)
			}
		}
		if !graphsEqual(g, ref) {
			t.Fatalf("trial %d: spliced CSR differs from the FromEdgesDedup rebuild", trial)
		}
	}
}

// TestOverlayShrinks pins the drop of restored rows: a row that a batch
// merges back to its base row leaves the overlay. Inserting an edge and
// deleting it again gives a flat graph on the base's own arrays. Inserting
// e1 and then, in one batch, inserting e2 and deleting e1 — update-query's
// pattern — leaves an overlay of the same base holding e2's rows only.
func TestOverlayShrinks(t *testing.T) {
	base := Grid2D(30, 40)
	e1, e2 := Edge{U: 0, V: 1199}, Edge{U: 17, V: 640}
	apply := func(g *Graph, b Batch) *Graph {
		t.Helper()
		out, _, err := ApplyBatch(g, b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	with1 := apply(base, Batch{Insert: []Edge{e1}})
	if with1.ov == nil {
		t.Fatal("a one-edge insert was spliced, not left as an overlay")
	}
	undone := apply(with1, Batch{Delete: []Edge{e1}})
	if undone.ov != nil || &undone.offsets[0] != &base.offsets[0] || &undone.adj[0] != &base.adj[0] {
		t.Fatal("undoing the insert did not give a flat graph on the base's arrays")
	}
	with2 := apply(with1, Batch{Insert: []Edge{e2}, Delete: []Edge{e1}})
	if with2.ov == nil {
		t.Fatal("the second batch was spliced, not left as an overlay")
	}
	flat, rows := with2.layers()
	if flat != base || !slices.Equal(rows.ids, []uint32{e2.U, e2.V}) {
		t.Fatalf("overlay of the base: %v, rows %v; want true, rows %v", flat == base, rows.ids, []uint32{e2.U, e2.V})
	}
}
