package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mpx/internal/graph"
)

// FuzzLoadSnapshot feeds arbitrary bytes to the decoder. The contract
// under fuzzing is total: Decode either returns a typed error or a
// fully-validated snapshot — never a panic, out-of-range adjacency, or a
// graph whose canonical re-encode differs from the accepted input (the
// format admits exactly one encoding per graph, so acceptance implies
// byte-level canonicity).
func FuzzLoadSnapshot(f *testing.F) {
	seedGraph := func(g *graph.Graph, wg *graph.WeightedGraph) []byte {
		var buf bytes.Buffer
		var err error
		if wg != nil {
			err = WriteWeighted(&buf, wg)
		} else {
			err = Write(&buf, g)
		}
		if err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seedGraph(graph.Grid2D(4, 5), nil)
	wvalid := seedGraph(nil, graph.RandomWeights(graph.Path(6), 1, 3, 2))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(wvalid)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3])
	f.Add(append(bytes.Clone(valid), 0xff))
	f.Add([]byte("MPXSNAP\x00 not really a snapshot"))
	f.Add(bytes.Repeat([]byte{0}, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		defer s.Close()
		var buf bytes.Buffer
		if s.Weighted() != nil {
			err = WriteWeighted(&buf, s.Weighted())
		} else {
			err = Write(&buf, s.Graph())
		}
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: re-encode differs (%d vs %d bytes)", buf.Len(), len(data))
		}
		if s.Graph().NumVertices() == 0 && len(data) != headerSize+8 {
			t.Fatalf("empty graph from %d-byte input", len(data))
		}
	})
}

// FuzzOpenAny feeds arbitrary file contents to the format dispatcher. The
// contract under fuzzing: OpenAny returns an error, or an Opened whose
// Fingerprint equals a fresh hash of the graph it returned — whichever
// format the leading bytes selected.
func FuzzOpenAny(f *testing.F) {
	g := graph.Grid2D(3, 4)
	encode := func(write func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(func(b *bytes.Buffer) error { return Write(b, g) }))
	f.Add(encode(func(b *bytes.Buffer) error { return WriteWeighted(b, graph.RandomWeights(g, 1, 3, 2)) }))
	f.Add(encode(func(b *bytes.Buffer) error { return graph.WriteBinary(b, g) }))
	f.Add(encode(func(b *bytes.Buffer) error { return graph.WriteDIMACS(b, g) }))
	f.Add(encode(func(b *bytes.Buffer) error { return graph.WriteEdgeList(b, g) }))
	f.Add([]byte{})

	// Inputs run one at a time per process, so one file serves them all
	// (a directory per input would cost more than the open itself).
	path := filepath.Join(f.TempDir(), "g")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := OpenAny(path)
		if err != nil {
			return
		}
		defer o.Close()
		if want := openedFingerprint(o); o.Fingerprint != want {
			t.Fatalf("%s: Opened.Fingerprint %016x, graph hashes %016x", o.Format, o.Fingerprint, want)
		}
	})
}
