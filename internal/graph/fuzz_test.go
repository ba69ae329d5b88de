package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Fuzz targets double as robustness tests: the seed corpus runs under
// plain `go test`, and `go test -fuzz` explores further. The parsers must
// never panic on arbitrary input, and successful parses must round-trip.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1\n1 2\n")
	f.Add("")
	f.Add("# comment\n1 0\n")
	f.Add("2 1\n0 1\n")
	f.Add("5 0\n")
	f.Add("1 1\n0 0\n")
	f.Add("2 1\n0 999999999999\n")
	f.Add("1 9000000000000000000\n")
	f.Add("1 -1\n")
	f.Add("1000000000 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		// A successful parse must produce a graph that survives a write /
		// re-read round trip.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape")
		}
	})
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add("p edge 3 2\ne 1 2\ne 2 3\n")
	f.Add("c x\np edge 1 0\n")
	f.Add("p sp 2 1\na 1 2\n")
	f.Add("p edge 0 0\n")
	f.Add("e 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		if _, err := ReadDIMACS(&buf); err != nil {
			t.Fatalf("re-read: %v", err)
		}
	})
}

func FuzzReadDIMACSWeighted(f *testing.F) {
	f.Add("p sp 3 2\na 1 2 2.5\na 2 3\n")
	f.Add("p edge 2 1\ne 1 2 1e300\n")
	f.Add("p sp 2 1\na 1 2 NaN\n")
	f.Add("p sp 2 1\na 1 2 +Inf\n")
	f.Add("p sp 2 1\na 1 2 -0\n")
	f.Add("c x\np sp 1 0\n")
	f.Add("p sp 4 5\na 1 2 3\na 2 1 3\na 3 2 0.5\na 2 3 7\ne 4 4 2\n")
	f.Add("p edge 5 6\ne 1 2\ne 2 1\ne 3 4\ne 2 3\ne 4 5\ne 3 4\n")
	f.Add("p col 3 2\ne 2 1 1.5 junk\ne 3 2 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		wg, err := ReadDIMACSWeighted(strings.NewReader(in))
		if err != nil {
			return
		}
		// A successful parse may never smuggle a non-finite or non-positive
		// weight into the CSR — the invariant every weighted engine assumes.
		for v := 0; v < wg.NumVertices(); v++ {
			_, ws := wg.Neighbors(uint32(v))
			for _, w := range ws {
				if !(w > 0) || math.IsInf(w, 0) {
					t.Fatalf("parse accepted weight %v", w)
				}
			}
		}
		// Cross-reader arm: OpenAny parses every DIMACS file with the
		// weighted reader and promises its unweighted view equals
		// ReadDIMACS's graph, so ReadDIMACS must accept the same input and
		// build the same graph.
		g, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			t.Fatalf("weighted reader accepted what ReadDIMACS rejects: %v", err)
		}
		if got, want := g.Fingerprint(), wg.Unweighted().Fingerprint(); got != want {
			t.Fatalf("ReadDIMACS fingerprint %016x != weighted reader's unweighted view %016x", got, want)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, Path(5))
	f.Add(buf.Bytes())
	f.Add([]byte("MPXG"))
	f.Add([]byte{})
	f.Add(binaryHeader(1, 1<<62))
	f.Add(binaryHeader(2, 1<<27))
	f.Add(binaryHeader(1<<29, 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
	})
}
