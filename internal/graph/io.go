package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge-list format: header line "n m", then one "u v" line per
// undirected edge. Lines starting with '#' or '%' are comments. Binary
// format: magic "MPXG", little-endian uint64 n, uint64 m, then 2m uint32
// endpoint pairs.

// maxEdgeCapHint bounds how many edge slots a header's declared edge count
// may pre-allocate (16 Mi edges = 128 MiB); larger files grow normally.
// Every reader in this package treats the count as a hint, so a corrupt or
// hostile header cannot allocate before a single edge is read.
const maxEdgeCapHint = 1 << 24

// maxFileVertices bounds a header's declared vertex count in every reader
// of this package. Unlike the edge count, n cannot be clamped lazily — the
// CSR build allocates O(n) arrays — so an absurd n in a tiny hostile file
// must be rejected outright. 2^28 vertices (~2 GiB of offsets) is far
// beyond any real graph file.
const maxFileVertices = 1 << 28

// WriteEdgeList writes g in the text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the text edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var m int64
	header := false
	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if !header {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: header must be \"n m\"", lineNo)
			}
			nv, err := strconv.Atoi(fields[0])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("graph: line %d: bad n %q", lineNo, fields[0])
			}
			if nv > maxFileVertices {
				return nil, fmt.Errorf("graph: line %d: n %d exceeds limit %d", lineNo, nv, maxFileVertices)
			}
			me, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || me < 0 {
				return nil, fmt.Errorf("graph: line %d: bad m %q", lineNo, fields[1])
			}
			n, m = nv, me
			header = true
			edges = make([]Edge, 0, min(m, maxEdgeCapHint))
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: edge must be \"u v\"", lineNo)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad u: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad v: %v", lineNo, err)
		}
		edges = append(edges, Edge{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		// Failed while reading the line after the last delivered one; the
		// position turns "token too long" into an actionable report.
		return nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
	}
	if !header {
		return nil, fmt.Errorf("graph: missing header line")
	}
	if int64(len(edges)) != m {
		return nil, fmt.Errorf("graph: header promised %d edges, found %d", m, len(edges))
	}
	return FromEdges(n, edges)
}

// BinaryMagic opens every file in the compact binary format.
var BinaryMagic = [4]byte{'M', 'P', 'X', 'G'}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(BinaryMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumEdges())); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				if err := binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(v), u}); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the compact binary format.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != BinaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var n, m uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if n > maxFileVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds limit %d", n, maxFileVertices)
	}
	// Edges are appended as they arrive: m sizes nothing beyond the hint.
	edges := make([]Edge, 0, min(m, maxEdgeCapHint))
	for i := uint64(0); i < m; i++ {
		var pair [2]uint32
		if err := binary.Read(br, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		edges = append(edges, Edge{pair[0], pair[1]})
	}
	return FromEdges(int(n), edges)
}
