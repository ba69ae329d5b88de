package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpx/internal/graph"
)

func writeTempFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenAnySniffing drives format auto-detection over every text and
// MPXG format (TestOpenAnyDispatch covers snapshots), and checks the
// fingerprint OpenAny reports against a fresh hash of what it returned.
func TestOpenAnySniffing(t *testing.T) {
	g := graph.Grid2D(4, 4)

	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	var dimacs bytes.Buffer
	if err := graph.WriteDIMACS(&dimacs, g); err != nil {
		t.Fatal(err)
	}
	var edgelist bytes.Buffer
	if err := graph.WriteEdgeList(&edgelist, g); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		file     string
		data     []byte
		format   string
		weighted bool
	}{
		{"binary", "g.bin", bin.Bytes(), "binary", false},
		{"dimacs", "g.col", dimacs.Bytes(), "dimacs", true},
		{"dimacs leading comment", "g2.col", append([]byte("c generated\n"), dimacs.Bytes()...), "dimacs", true},
		{"edge list", "g.txt", edgelist.Bytes(), "edgelist", false},
		{"edge list comment", "g2.txt", append([]byte("# comment\n"), edgelist.Bytes()...), "edgelist", false},
	}
	for _, tc := range cases {
		o, err := OpenAny(writeTempFile(t, tc.file, tc.data))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if o.Format != tc.format {
			t.Errorf("%s: detected %q, want %q", tc.name, o.Format, tc.format)
		}
		if (o.Weighted != nil) != tc.weighted {
			t.Errorf("%s: weighted=%v, want %v", tc.name, o.Weighted != nil, tc.weighted)
		}
		if o.Graph.Fingerprint() != g.Fingerprint() {
			t.Errorf("%s: graph fingerprint changed through OpenAny", tc.name)
		}
		if want := openedFingerprint(o); o.Fingerprint != want {
			t.Errorf("%s: Opened.Fingerprint %016x, graph hashes %016x", tc.name, o.Fingerprint, want)
		}
		if err := o.Close(); err != nil {
			t.Errorf("%s: Close: %v", tc.name, err)
		}
		if err := o.Close(); err != nil {
			t.Errorf("%s: second Close: %v", tc.name, err)
		}
	}
}

// TestOpenAnyDIMACSMatchesReadDIMACS pins the bugfix contract for routing
// DIMACS through the weighted reader: the unweighted view must be
// bit-identical to ReadDIMACS on the same file, including when the file
// has duplicate and flipped edges.
func TestOpenAnyDIMACSMatchesReadDIMACS(t *testing.T) {
	in := "c dup-heavy instance\n" +
		"p edge 5 6\n" +
		"e 1 2\ne 2 1\ne 3 4\ne 2 3\ne 4 5\ne 3 4\n"
	direct, err := graph.ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	o, err := OpenAny(writeTempFile(t, "dup.col", []byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Graph.Fingerprint() != direct.Fingerprint() {
		t.Fatalf("OpenAny DIMACS fingerprint %016x != ReadDIMACS %016x",
			o.Graph.Fingerprint(), direct.Fingerprint())
	}
}

// TestOpenAnyErrors covers the failure modes: missing file, unknown
// leading byte, and empty file.
func TestOpenAnyErrors(t *testing.T) {
	if _, err := OpenAny(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := OpenAny(writeTempFile(t, "junk", []byte("@binary junk"))); err == nil ||
		!strings.Contains(err.Error(), "unrecognized graph format") {
		t.Errorf("unknown format: error %v", err)
	}
	if _, err := OpenAny(writeTempFile(t, "empty", nil)); err == nil ||
		!strings.Contains(err.Error(), "no content") {
		t.Errorf("empty file: error %v", err)
	}
}

// openedFingerprint recomputes the fingerprint Opened.Fingerprint promises:
// the weighted graph's when there is one, else the graph's.
func openedFingerprint(o *Opened) uint64 {
	if o.Weighted != nil {
		return o.Weighted.Fingerprint()
	}
	return o.Graph.Fingerprint()
}
