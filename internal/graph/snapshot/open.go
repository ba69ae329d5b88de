package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"mpx/internal/graph"
)

// Opened is an open graph plus the resources backing it. Graph is always
// set; Weighted is additionally set when the source carries weights (a
// weighted snapshot, or any DIMACS file — lines without a weight column
// default to weight 1), sharing storage with Graph. Close releases any
// backing resources (a snapshot's memory mapping); the graphs must not be
// used after Close.
type Opened struct {
	Graph    *graph.Graph
	Weighted *graph.WeightedGraph
	Format   string // "snapshot", "binary", "dimacs", "edgelist"
	// Fingerprint is the content fingerprint of Weighted when it is set,
	// else of Graph: for a snapshot the header value Load verified, for
	// every other format one hash of the parsed graph.
	Fingerprint uint64
	closer      io.Closer
}

// Close releases the resources backing the graphs, if any. Safe to call
// twice.
func (o *Opened) Close() error {
	if o == nil || o.closer == nil {
		return nil
	}
	c := o.closer
	o.closer = nil
	return c.Close()
}

// sniffLimit bounds how many leading bytes OpenAny reads to classify a
// file; text files may open with comments, so it is larger than any magic.
const sniffLimit = 512

// OpenAny opens a graph file of any supported format, auto-detected from
// its leading bytes: a snapshot by Magic (loaded with Load, so it stays
// memory-mapped), the legacy "MPXG" binary edge list by graph.BinaryMagic,
// and the two text formats by sniffing — DIMACS when the first non-blank
// character is a 'c' comment or 'p' problem line, edge list when it is a
// digit or a '#'/'%' comment. The CLI, the update-trace replay path and
// mpxd's register handler all load through here, so every input accepts
// every format.
func OpenAny(path string) (*Opened, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prefix := make([]byte, sniffLimit)
	k, err := io.ReadFull(f, prefix)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("graph: sniffing %s: %w", path, err)
	}
	prefix = prefix[:k]
	if bytes.HasPrefix(prefix, Magic[:]) {
		s, err := Load(path)
		if err != nil {
			return nil, err
		}
		return &Opened{Graph: s.Graph(), Weighted: s.Weighted(), Format: "snapshot", Fingerprint: s.Fingerprint(), closer: s}, nil
	}
	format := "binary"
	if !bytes.HasPrefix(prefix, graph.BinaryMagic[:]) {
		if format, err = sniffText(prefix, path); err != nil {
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	o := &Opened{Format: format}
	switch format {
	case "binary":
		o.Graph, err = graph.ReadBinary(f)
	case "dimacs":
		// Parse weighted so ".gr" weights survive; for weightless DIMACS
		// files every line defaults to weight 1, and the unweighted view is
		// bit-identical to ReadDIMACS (both dedup to the same canonical
		// edge set).
		if o.Weighted, err = graph.ReadDIMACSWeighted(f); err == nil {
			o.Graph = o.Weighted.Unweighted()
		}
	default: // "edgelist"
		o.Graph, err = graph.ReadEdgeList(f)
	}
	if err != nil {
		return nil, err
	}
	if o.Weighted != nil {
		o.Fingerprint = o.Weighted.Fingerprint()
	} else {
		o.Fingerprint = o.Graph.Fingerprint()
	}
	return o, nil
}

// sniffText classifies a text graph file from its first non-whitespace
// byte.
func sniffText(prefix []byte, path string) (string, error) {
	for _, c := range prefix {
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			continue
		case c == 'c' || c == 'p':
			return "dimacs", nil
		case c >= '0' && c <= '9' || c == '#' || c == '%':
			return "edgelist", nil
		default:
			return "", fmt.Errorf("graph: %s: unrecognized graph format (leading byte %q)", path, c)
		}
	}
	return "", fmt.Errorf("graph: %s: unrecognized graph format (no content)", path)
}
