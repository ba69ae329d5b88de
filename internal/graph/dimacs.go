package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DIMACS format support: the de-facto exchange format for graph benchmark
// suites ("p edge n m" header, "e u v" edge lines, 1-based vertex ids,
// "c" comment lines). Having it here lets the CLI consume published
// instances directly.

// ReadDIMACS parses a DIMACS .col/.edge graph. Fields after an edge
// record's endpoints are ignored.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	n, edges, err := scanDIMACS(r, func(u, v uint32, _ []string, _ int) (Edge, error) {
		return Edge{u, v}, nil
	})
	if err != nil {
		return nil, err
	}
	// DIMACS files sometimes list each edge twice ("a" arcs); dedup.
	return FromEdgesDedup(n, edges)
}

// scanDIMACS is the DIMACS scanner both readers share. It owns the problem
// line with its n and m limits, the clamped capacity hint, record
// dispatch, the 1-based range checks and the line numbers on scanner
// errors; edge turns each edge record — its 0-based endpoints and the
// fields after them — into the reader's edge type. It returns the
// header's vertex count and the edges in file order.
func scanDIMACS[E any](r io.Reader, edge func(u, v uint32, extra []string, lineNo int) (E, error)) (int, []E, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var edges []E
	header := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if header {
				return 0, nil, fmt.Errorf("graph: line %d: duplicate problem line", lineNo)
			}
			if len(fields) != 4 || (fields[1] != "edge" && fields[1] != "col" && fields[1] != "sp") {
				return 0, nil, fmt.Errorf("graph: line %d: malformed problem line", lineNo)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return 0, nil, fmt.Errorf("graph: line %d: bad n %q", lineNo, fields[2])
			}
			if nv > maxFileVertices {
				return 0, nil, fmt.Errorf("graph: line %d: n %d exceeds limit %d", lineNo, nv, maxFileVertices)
			}
			m, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil || m < 0 {
				return 0, nil, fmt.Errorf("graph: line %d: bad m %q", lineNo, fields[3])
			}
			n = nv
			// The header's edge count is a hint, not a contract: a corrupt or
			// hostile header (e.g. "p edge 10 999999999999") must not OOM the
			// reader before a single edge line is parsed. Clamp the initial
			// capacity and let the slice grow to whatever the file holds.
			edges = make([]E, 0, min(m, maxEdgeCapHint))
			header = true
		case "e", "a":
			if !header {
				return 0, nil, fmt.Errorf("graph: line %d: edge before problem line", lineNo)
			}
			if len(fields) < 3 {
				return 0, nil, fmt.Errorf("graph: line %d: malformed edge", lineNo)
			}
			u, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("graph: line %d: bad u: %v", lineNo, err)
			}
			v, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("graph: line %d: bad v: %v", lineNo, err)
			}
			if u < 1 || v < 1 || int(u) > n || int(v) > n {
				return 0, nil, fmt.Errorf("graph: line %d: vertex out of 1..%d", lineNo, n)
			}
			e, err := edge(uint32(u-1), uint32(v-1), fields[3:], lineNo)
			if err != nil {
				return 0, nil, err
			}
			edges = append(edges, e)
		default:
			return 0, nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner fails while reading the line *after* the last one it
		// delivered; without the position a "token too long" on a multi-GB
		// instance is undebuggable.
		return 0, nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
	}
	if !header {
		return 0, nil, fmt.Errorf("graph: missing DIMACS problem line")
	}
	return n, edges, nil
}

// ReadDIMACSWeighted parses a DIMACS graph whose edge lines carry an
// optional weight ("e u v w" / "a u v w", the shortest-path .gr flavor);
// lines without a weight field default to weight 1. Weights must be
// finite and positive (NaN and ±Inf are rejected, not just non-positive
// values). Duplicate edge records (DIMACS files often list each arc
// twice) collapse to one edge, last weight winning — the FromWeightedEdges
// convention.
func ReadDIMACSWeighted(r io.Reader) (*WeightedGraph, error) {
	n, edges, err := scanDIMACS(r, func(u, v uint32, extra []string, lineNo int) (WeightedEdge, error) {
		if len(extra) == 0 {
			return WeightedEdge{U: u, V: v, W: 1}, nil
		}
		w, err := strconv.ParseFloat(extra[0], 64)
		if err != nil {
			return WeightedEdge{}, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
		}
		// NaN fails every ordered comparison and +Inf passes w > 0, so the
		// positivity check alone lets both through — and a single
		// non-finite weight poisons every downstream distance.
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return WeightedEdge{}, fmt.Errorf("graph: line %d: weight %q is not a finite positive number", lineNo, extra[0])
		}
		return WeightedEdge{U: u, V: v, W: w}, nil
	})
	if err != nil {
		return nil, err
	}
	// Collapse duplicate records before the strict CSR build, keeping each
	// pair's last weight (matching the FromWeightedEdges alignment rule).
	// Same sort-based canonical dedup as fromEdges — a stable sort keeps
	// equal pairs in file order, so the last record of a run carries the
	// winning weight — rather than a map pre-sized to len(edges), which
	// allocated O(m) even for duplicate-free files.
	canon := edges[:0]
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		canon = append(canon, e)
	}
	sort.SliceStable(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	dedup := canon[:0]
	for i, e := range canon {
		if i > 0 && e.U == dedup[len(dedup)-1].U && e.V == dedup[len(dedup)-1].V {
			dedup[len(dedup)-1].W = e.W // last weight wins
			continue
		}
		dedup = append(dedup, e)
	}
	return FromWeightedEdges(n, dedup)
}

// WriteDIMACSWeighted writes g in the DIMACS shortest-path format
// ("p sp n m" header, "a u v w" arc lines, 1-based, each undirected edge
// listed once). Weights print via strconv.FormatFloat('g', -1), the
// shortest decimal that parses back to the identical float64 bits, so a
// read → write → read round trip is exact — the writer ReadDIMACSWeighted
// lacked (WriteDIMACS silently dropped the weights).
func WriteDIMACSWeighted(w io.Writer, g *WeightedGraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		nb, ws := g.Neighbors(uint32(v))
		for i, u := range nb {
			if uint32(v) < u {
				if _, err := fmt.Fprintf(bw, "a %d %d %s\n", v+1, u+1, strconv.FormatFloat(ws[i], 'g', -1, 64)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteDIMACS writes g in DIMACS edge format (1-based).
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", v+1, u+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
