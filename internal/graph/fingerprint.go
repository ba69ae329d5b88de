package graph

import (
	"encoding/binary"
	"math"
)

// Content fingerprints: a 64-bit FNV-1a hash over the canonical CSR bits.
// Because every builder in this package produces a canonical CSR (sorted
// adjacency, deterministic construction — see docs/determinism.md), the
// fingerprint is a stable identity for the graph's *content*: two graphs
// built from any edge ordering of the same edge set hash equal, and any
// single-bit difference in shape or weights hashes different with
// overwhelming probability. The snapshot format (internal/graph/snapshot)
// stores it in the header, and it is mpxd's registry and cache key.
//
// The fingerprint is an FNV-1a fold over three per-section sums rather
// than one long chain, so a snapshot loader that has already checksummed
// its sections verifies the fingerprint in O(1) and the payload is hashed
// exactly once. Each section sum is itself a fold over 1 MiB chunks. The
// chunking buys no speed — the loader hashes each section serially,
// beside its CSR validation — but it is part of snapshot format version
// 1: every recorded checksum and fingerprint, and so every mpxd registry
// key, depends on it. The definition:
//
//	chunkSum(chunk) = FNV-1a at 64-bit granularity: h starts at the FNV
//	    offset basis and absorbs each little-endian 64-bit word w of the
//	    chunk as h = (h XOR w) × FNVprime; a trailing partial word is
//	    zero-padded. Word granularity processes 8 bytes per multiply —
//	    FNV's serial dependence makes the byte-wise chain ~8× slower,
//	    and every section is a whole number of words by construction.
//
//	sectionSum(bytes) = FNV1a(LE64(chunkSum(chunk_0)) ‖ LE64(chunkSum(chunk_1)) ‖ …)
//	    over consecutive 1 MiB chunks (last one partial; an empty
//	    section has no chunks, so its sum is the FNV-1a offset basis)
//
//	offsetsSum = sectionSum(offsets as LE64s)
//	adjSum     = sectionSum(adjacency as LE32s)
//	weightsSum = sectionSum(weights as LE64 IEEE-754 bits), or 0 if unweighted
//	fingerprint = FNV1a(LE64(n) ‖ LE64(arcs) ‖ weightedByte ‖
//	                    LE64(offsetsSum) ‖ LE64(adjSum) ‖ LE64(weightsSum))
//
// where weightedByte is 0x01 when a weight payload is present and 0x00
// otherwise. The three section streams are exactly the section bytes of
// the snapshot format (1 MiB is a whole number of 8- and 4-byte values,
// so chunk boundaries agree between typed arrays and raw bytes), and the
// section sums are exactly the snapshot's per-section checksums: the
// snapshot writer and loader both compute them with SectionSum*.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd absorbs raw bytes into an FNV-1a 64-bit state.
func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// SectionChunkBytes is the chunk size of the per-section checksum fold:
// sections are hashed as independent FNV-1a chains over consecutive
// chunks of this many bytes, folded in order. The snapshot package
// depends on this value; changing it changes every fingerprint and
// requires a snapshot format version bump.
const SectionChunkBytes = 1 << 20

// foldChunk absorbs a completed chunk sum into the section fold.
func foldChunk(fold, chunkSum uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], chunkSum)
	return fnvAdd(fold, b[:])
}

// fnvAddWord absorbs one 64-bit word — the chunk-hash step. A uint64 IS
// its little-endian word, so typed slices hash without serialization.
func fnvAddWord(h, w uint64) uint64 {
	h ^= w
	h *= fnvPrime64
	return h
}

// fnvAddInt64s absorbs int64 values as little-endian two's-complement
// words (the on-disk encoding of the snapshot offsets section).
func fnvAddInt64s(h uint64, xs []int64) uint64 {
	for _, x := range xs {
		h = fnvAddWord(h, uint64(x))
	}
	return h
}

// fnvAddUint32s absorbs uint32 values pairwise as little-endian words
// (the on-disk encoding of the snapshot adjacency section: consecutive
// LE32s, low value in the low half). A trailing lone value — impossible
// for a valid CSR, whose arc count is even — is zero-padded, matching the
// byte-stream definition.
func fnvAddUint32s(h uint64, xs []uint32) uint64 {
	for ; len(xs) >= 2; xs = xs[2:] {
		h = fnvAddWord(h, uint64(xs[0])|uint64(xs[1])<<32)
	}
	if len(xs) == 1 {
		h = fnvAddWord(h, uint64(xs[0]))
	}
	return h
}

// fnvAddFloat64s absorbs float64 values as the little-endian words of
// their IEEE-754 bit patterns (the on-disk encoding of the snapshot
// weights section). Hashing the bits, not the values, keeps the
// fingerprint exact: weights that differ by one ulp hash different.
func fnvAddFloat64s(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h = fnvAddWord(h, math.Float64bits(x))
	}
	return h
}

// FingerprintCSR hashes raw CSR arrays per the scheme above. A nil or
// empty offsets slice is canonicalized to the empty graph's [0], so the
// zero-value *Graph and a loaded empty snapshot fingerprint equal.
// weights is nil for an unweighted graph.
func FingerprintCSR(offsets []int64, adj []uint32, weights []float64) uint64 {
	if len(offsets) == 0 {
		offsets = []int64{0}
	}
	offsetsSum := SectionSumInt64s(offsets)
	adjSum := SectionSumUint32s(adj)
	var weightsSum uint64
	if weights != nil {
		weightsSum = SectionSumFloat64s(weights)
	}
	weighted := weights != nil
	return FoldFingerprint(uint64(len(offsets)-1), uint64(len(adj)), weighted, offsetsSum, adjSum, weightsSum)
}

// SectionSumInt64s computes the chunked section checksum of xs encoded as
// little-endian bytes — the value the snapshot header records for the
// offsets section.
func SectionSumInt64s(xs []int64) uint64 {
	const perChunk = SectionChunkBytes / 8
	fold := uint64(fnvOffset64)
	for start := 0; start < len(xs); start += perChunk {
		end := min(start+perChunk, len(xs))
		fold = foldChunk(fold, fnvAddInt64s(fnvOffset64, xs[start:end]))
	}
	return fold
}

// SectionSumUint32s is the chunked section checksum for the adjacency
// section.
func SectionSumUint32s(xs []uint32) uint64 {
	const perChunk = SectionChunkBytes / 4
	fold := uint64(fnvOffset64)
	for start := 0; start < len(xs); start += perChunk {
		end := min(start+perChunk, len(xs))
		fold = foldChunk(fold, fnvAddUint32s(fnvOffset64, xs[start:end]))
	}
	return fold
}

// SectionSumFloat64s is the chunked section checksum for the weights
// section (IEEE-754 bit patterns).
func SectionSumFloat64s(xs []float64) uint64 {
	const perChunk = SectionChunkBytes / 8
	fold := uint64(fnvOffset64)
	for start := 0; start < len(xs); start += perChunk {
		end := min(start+perChunk, len(xs))
		fold = foldChunk(fold, fnvAddFloat64s(fnvOffset64, xs[start:end]))
	}
	return fold
}

// FoldFingerprint combines the shape and the per-section FNV-1a sums into
// the content fingerprint. The snapshot loader calls this with the sums
// recorded in a file header it has verified; FingerprintCSR calls it with
// sums over the typed arrays. Both spell the identical value because the
// section byte streams match.
func FoldFingerprint(n, arcs uint64, weighted bool, offsetsSum, adjSum, weightsSum uint64) uint64 {
	var buf [41]byte
	binary.LittleEndian.PutUint64(buf[0:], n)
	binary.LittleEndian.PutUint64(buf[8:], arcs)
	if weighted {
		buf[16] = 1
	}
	binary.LittleEndian.PutUint64(buf[17:], offsetsSum)
	binary.LittleEndian.PutUint64(buf[25:], adjSum)
	binary.LittleEndian.PutUint64(buf[33:], weightsSum)
	return fnvAdd(fnvOffset64, buf[:])
}

// Fingerprint returns the content fingerprint of the graph.
func (g *Graph) Fingerprint() uint64 {
	return FingerprintCSR(g.Offsets(), g.Adjacency(), nil)
}

// Fingerprint returns the content fingerprint of the weighted graph. It
// covers the weight bits, so it never collides with the fingerprint of
// the unweighted graph with the same shape.
func (g *WeightedGraph) Fingerprint() uint64 {
	return FingerprintCSR(g.offsets, g.adj, g.weights)
}
