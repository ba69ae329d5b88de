// Package snapshot implements the versioned binary CSR snapshot format:
// a graph (optionally weighted) written once and memory-mapped on load,
// with per-section checksums and the content fingerprint in the header.
// Loading constructs the CSR views zero-copy over the mapped sections, so
// startup cost is validation, not parsing — see docs/snapshot.md for the
// format specification and the E24 benchmark family for the speedup gate
// against text DIMACS parsing.
//
// The package also owns graph-file format detection: OpenAny opens a
// snapshot, a legacy MPXG binary edge list, a DIMACS file or a text edge
// list, whichever the file's leading bytes identify.
//
// Layout (all integers little-endian):
//
//	offset size  field
//	 0      8    magic "MPXSNAP\x00"
//	 8      4    version (currently 1)
//	12      4    flags (bit 0: weight section present; others must be 0)
//	16      8    n, vertex count
//	24      8    arcs = 2m, adjacency length
//	32      8    content fingerprint (graph.FingerprintCSR)
//	40      8    chunked FNV-1a checksum of the offsets section bytes
//	48      8    chunked FNV-1a checksum of the adjacency section bytes
//	56      8    chunked FNV-1a checksum of the weights section (0 if none)
//	64      8    FNV-1a checksum of header bytes [0, 64)
//	72      —    offsets section: (n+1) int64
//	 …      —    adjacency section: arcs uint32
//	 …      —    weights section (flag bit 0): arcs float64 IEEE-754 bits
//
// The header is 72 bytes and every section length is a multiple of 8
// (arcs is even), so all sections are 8-byte aligned relative to the
// page-aligned mapping and can be reinterpreted in place. A file must be
// exactly header+sections long: trailing bytes are an error, truncation
// is an error, and every checksum and CSR invariant is verified before a
// graph is handed out — a corrupt snapshot is a typed error, never a
// crash.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// Magic identifies a snapshot file; OpenAny dispatches on it.
var Magic = [8]byte{'M', 'P', 'X', 'S', 'N', 'A', 'P', 0}

// Version is the current format version. Readers reject any other value:
// the format evolves by bumping it, never by reinterpreting version 1.
const Version = 1

// FlagWeighted marks the presence of the weights section.
const FlagWeighted = 1 << 0

const (
	headerSize   = 72
	offHeaderSum = 64
)

// maxSnapshotVertices / maxSnapshotArcs bound the header's declared
// counts before any size arithmetic: the exact-size check below catches
// every mismatch, but only if computing the expected size cannot
// overflow uint64 first.
const (
	maxSnapshotVertices = 1 << 40
	maxSnapshotArcs     = 1 << 42
)

// Typed errors for every rejection class; corrupt inputs always unwrap to
// one of these (or graph.ErrInvalidCSR from the structural validation).
var (
	ErrBadMagic  = errors.New("snapshot: bad magic")
	ErrVersion   = errors.New("snapshot: unsupported version")
	ErrFlags     = errors.New("snapshot: unknown flag bits")
	ErrTruncated = errors.New("snapshot: truncated or wrong size")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrHeader    = errors.New("snapshot: malformed header")
)

// headerSum is the header checksum: FNV-1a 64 over header bytes [0, 64).
func headerSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b[:offHeaderSum]) // a hash.Hash Write never returns an error
	return h.Sum64()
}

// header is the decoded fixed-size prelude.
type header struct {
	version     uint32
	flags       uint32
	n           uint64
	arcs        uint64
	fingerprint uint64
	offsetsSum  uint64
	adjSum      uint64
	weightsSum  uint64
}

func (h *header) weighted() bool { return h.flags&FlagWeighted != 0 }

// sectionSizes returns the byte length of each section.
func (h *header) sectionSizes() (offsetsLen, adjLen, weightsLen uint64) {
	offsetsLen = 8 * (h.n + 1)
	adjLen = 4 * h.arcs
	if h.weighted() {
		weightsLen = 8 * h.arcs
	}
	return
}

// encodeHeader serializes h, computing the trailing header checksum.
func encodeHeader(h *header) [headerSize]byte {
	var buf [headerSize]byte
	copy(buf[0:8], Magic[:])
	binary.LittleEndian.PutUint32(buf[8:], h.version)
	binary.LittleEndian.PutUint32(buf[12:], h.flags)
	binary.LittleEndian.PutUint64(buf[16:], h.n)
	binary.LittleEndian.PutUint64(buf[24:], h.arcs)
	binary.LittleEndian.PutUint64(buf[32:], h.fingerprint)
	binary.LittleEndian.PutUint64(buf[40:], h.offsetsSum)
	binary.LittleEndian.PutUint64(buf[48:], h.adjSum)
	binary.LittleEndian.PutUint64(buf[56:], h.weightsSum)
	binary.LittleEndian.PutUint64(buf[offHeaderSum:], headerSum(buf[:]))
	return buf
}

// decodeHeader validates magic, header checksum, version and flags.
func decodeHeader(data []byte) (*header, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[0:8]) != string(Magic[:]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, data[0:8])
	}
	wantSum := binary.LittleEndian.Uint64(data[offHeaderSum:headerSize])
	if gotSum := headerSum(data); gotSum != wantSum {
		return nil, fmt.Errorf("%w: header hashes %#016x, recorded %#016x", ErrChecksum, gotSum, wantSum)
	}
	h := &header{
		version:     binary.LittleEndian.Uint32(data[8:]),
		flags:       binary.LittleEndian.Uint32(data[12:]),
		n:           binary.LittleEndian.Uint64(data[16:]),
		arcs:        binary.LittleEndian.Uint64(data[24:]),
		fingerprint: binary.LittleEndian.Uint64(data[32:]),
		offsetsSum:  binary.LittleEndian.Uint64(data[40:]),
		adjSum:      binary.LittleEndian.Uint64(data[48:]),
		weightsSum:  binary.LittleEndian.Uint64(data[56:]),
	}
	if h.version != Version {
		return nil, fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, h.version, Version)
	}
	if h.flags&^uint32(FlagWeighted) != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrFlags, h.flags)
	}
	if h.n > maxSnapshotVertices {
		return nil, fmt.Errorf("%w: vertex count %d exceeds limit %d", ErrHeader, h.n, uint64(maxSnapshotVertices))
	}
	if h.arcs > maxSnapshotArcs {
		return nil, fmt.Errorf("%w: arc count %d exceeds limit %d", ErrHeader, h.arcs, uint64(maxSnapshotArcs))
	}
	if h.arcs%2 != 0 {
		return nil, fmt.Errorf("%w: odd arc count %d", ErrHeader, h.arcs)
	}
	if !h.weighted() && h.weightsSum != 0 {
		return nil, fmt.Errorf("%w: weights checksum set without the weighted flag", ErrHeader)
	}
	return h, nil
}

// Snapshot is a decoded snapshot: the graph views plus ownership of the
// backing memory (a mapping under Load, a heap buffer under Read/Decode).
// The views alias that memory — Close invalidates them.
type Snapshot struct {
	g      *graph.Graph
	wg     *graph.WeightedGraph // nil when the file has no weights
	fp     uint64               // the header fingerprint decode verified
	data   []byte
	mapped bool
}

// Graph returns the unweighted view (always present; for a weighted
// snapshot it shares storage with Weighted).
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Weighted returns the weighted view, or nil for an unweighted snapshot.
func (s *Snapshot) Weighted() *graph.WeightedGraph { return s.wg }

// Fingerprint returns the content fingerprint recorded in (and verified
// against) the file: the weighted fingerprint for a weighted snapshot. It
// costs O(1); the payload was hashed once, by the load.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// Mapped reports whether the snapshot is backed by a memory mapping (vs a
// heap copy from the read fallback).
func (s *Snapshot) Mapped() bool { return s.mapped }

// Close releases the backing memory. The graphs returned by Graph and
// Weighted must not be used afterwards: for a mapped snapshot their
// storage is unmapped. Safe to call twice.
func (s *Snapshot) Close() error {
	if s == nil || s.data == nil {
		return nil
	}
	data := s.data
	s.data, s.g, s.wg = nil, nil, nil
	if s.mapped {
		s.mapped = false
		return munmap(data)
	}
	return nil
}

// decode validates data as a snapshot and builds the views. On the happy
// path the views alias data directly; when data is not suitably aligned
// for in-place reinterpretation (possible for arbitrary caller buffers,
// never for a mapping or io.ReadAll result in practice) the affected
// section is copied.
func decode(data []byte, mapped bool) (*Snapshot, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	offsetsLen, adjLen, weightsLen := h.sectionSizes()
	want := uint64(headerSize) + offsetsLen + adjLen + weightsLen
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrTruncated, len(data), want)
	}
	offsetsBytes := data[headerSize : headerSize+offsetsLen]
	adjBytes := data[headerSize+offsetsLen : headerSize+offsetsLen+adjLen]
	weightsBytes := data[headerSize+offsetsLen+adjLen:]

	offsets := view[int64](offsetsBytes)
	adj := view[uint32](adjBytes)
	var weights []float64
	if h.weighted() {
		weights = view[float64](weightsBytes)
	}

	// The section hashes and the structural CSR validation are independent
	// read-only passes over the mapping; for a large snapshot each costs
	// milliseconds, so they run as the two slots of one pool job and the
	// hash hides behind the validation. The typed views hash to the same
	// sums as the raw section bytes (see graph/fingerprint.go).
	s := &Snapshot{data: data, mapped: mapped, fp: h.fingerprint}
	var offsetsSum, adjSum, weightsSum uint64
	var structErr error
	parallel.Default().Run(2, func(k int) {
		if k == 0 {
			offsetsSum = graph.SectionSumInt64s(offsets)
			adjSum = graph.SectionSumUint32s(adj)
			if h.weighted() {
				weightsSum = graph.SectionSumFloat64s(weights)
			}
			return
		}
		if h.weighted() {
			if s.wg, structErr = graph.FromWeightedCSR(offsets, adj, weights); structErr == nil {
				s.g = s.wg.Unweighted()
			}
		} else {
			s.g, structErr = graph.FromCSR(offsets, adj)
		}
	})

	// Report checksum mismatches before structural ones: a corrupted bit
	// usually breaks both, and "checksum mismatch" is the actionable
	// diagnosis (re-fetch the file), not "invalid CSR".
	if offsetsSum != h.offsetsSum {
		return nil, fmt.Errorf("%w: offsets section hashes %#016x, recorded %#016x", ErrChecksum, offsetsSum, h.offsetsSum)
	}
	if adjSum != h.adjSum {
		return nil, fmt.Errorf("%w: adjacency section hashes %#016x, recorded %#016x", ErrChecksum, adjSum, h.adjSum)
	}
	if h.weighted() && weightsSum != h.weightsSum {
		return nil, fmt.Errorf("%w: weights section hashes %#016x, recorded %#016x", ErrChecksum, weightsSum, h.weightsSum)
	}
	if structErr != nil {
		return nil, structErr
	}
	// The fingerprint is a fold over the section sums verified above, so
	// checking it costs O(1) — the payload is hashed exactly once per
	// load, which is what keeps mapping a snapshot an order of magnitude
	// cheaper than parsing it from text (the E24 gate).
	if got := graph.FoldFingerprint(h.n, h.arcs, h.weighted(), h.offsetsSum, h.adjSum, h.weightsSum); got != h.fingerprint {
		return nil, fmt.Errorf("%w: content fingerprint is %#016x, header records %#016x", ErrChecksum, got, h.fingerprint)
	}
	return s, nil
}

// Decode validates data as a snapshot. The returned views alias data
// where alignment permits; the caller keeps data alive until Close.
func Decode(data []byte) (*Snapshot, error) {
	return decode(data, false)
}

// Read loads a snapshot from any reader via one contiguous read — the
// fallback for non-mmap platforms and non-file sources.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data, false)
}

// Load opens a snapshot file, memory-mapping it where the platform
// supports it and falling back to reading it whole otherwise. The
// returned snapshot owns the mapping; Close releases it and invalidates
// the graphs.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %s is %d bytes, header needs %d", ErrTruncated, path, size, headerSize)
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("%w: %s is %d bytes, beyond this platform's address space", ErrHeader, path, size)
	}
	if data, ok := mmapFile(f, size); ok {
		s, err := decode(data, true)
		if err != nil {
			_ = munmap(data)
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// writeChunk is the size of the buffer writeSection encodes through.
const writeChunk = 1 << 16

// writeSection streams xs as little-endian values, encoding through one
// reused writeChunk-byte buffer.
func writeSection[T int64 | uint32 | float64](w io.Writer, xs []T) error {
	var zero T
	per := writeChunk / binary.Size(zero)
	buf := make([]byte, 0, writeChunk)
	for len(xs) > 0 {
		k := min(per, len(xs))
		var err error
		if buf, err = binary.Append(buf[:0], binary.LittleEndian, xs[:k]); err != nil {
			return err
		}
		if _, err = w.Write(buf); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// writeCSR streams the full snapshot for raw CSR arrays. The section
// checksums hash the typed arrays directly (graph.SectionSum* — word-wise,
// no serialization pass), then the sections stream as plain bytes.
func writeCSR(w io.Writer, offsets []int64, adj []uint32, weights []float64) error {
	if len(offsets) == 0 {
		offsets = []int64{0} // zero-value graph canonicalizes to the empty snapshot
	}
	h := header{
		version:    Version,
		n:          uint64(len(offsets) - 1),
		arcs:       uint64(len(adj)),
		offsetsSum: graph.SectionSumInt64s(offsets),
		adjSum:     graph.SectionSumUint32s(adj),
	}
	if weights != nil {
		h.flags |= FlagWeighted
		h.weightsSum = graph.SectionSumFloat64s(weights)
	}
	// The fingerprint folds the section sums just computed, so it costs
	// nothing extra here and equals graph.FingerprintCSR on the arrays.
	h.fingerprint = graph.FoldFingerprint(h.n, h.arcs, weights != nil, h.offsetsSum, h.adjSum, h.weightsSum)
	buf := encodeHeader(&h)
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	if err := writeSection(w, offsets); err != nil {
		return err
	}
	if err := writeSection(w, adj); err != nil {
		return err
	}
	if weights != nil {
		return writeSection(w, weights)
	}
	return nil
}

// Write streams g as an unweighted snapshot. The output is canonical:
// writing the same graph always produces the same bytes, and decoding
// then re-writing any valid snapshot reproduces it exactly.
func Write(w io.Writer, g *graph.Graph) error {
	return writeCSR(w, g.Offsets(), g.Adjacency(), nil)
}

// WriteWeighted streams g as a weighted snapshot.
func WriteWeighted(w io.Writer, g *graph.WeightedGraph) error {
	return writeCSR(w, g.Offsets(), g.Adjacency(), g.Weights())
}

// WriteFile writes g (or, when wg is non-nil, wg) to path via a temp file
// rename so a crashed writer never leaves a partial snapshot at path.
func WriteFile(path string, g *graph.Graph, wg *graph.WeightedGraph) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".mpxsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if wg != nil {
		err = WriteWeighted(tmp, wg)
	} else {
		err = Write(tmp, g)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		// CreateTemp opens 0600; a snapshot is a shareable artifact.
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
