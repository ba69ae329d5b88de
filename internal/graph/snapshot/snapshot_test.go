package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mpx/internal/graph"
)

func encodeUnweighted(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeWeighted(t *testing.T, wg *graph.WeightedGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWeighted(&buf, wg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fnvOffset64 and fnv64a are the tests' own byte-wise FNV-1a 64,
// independent of the package's hash/fnv header checksum.
const fnvOffset64 = 14695981039346656037

func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// reseal recomputes every checksum and the fingerprint of a (possibly
// mutated) snapshot byte image from its actual content, using an
// implementation independent of the decoder: per-section FNV-1a sums over
// the raw section bytes, then the fingerprint as an FNV-1a fold of
// LE64(n) ‖ LE64(arcs) ‖ weightedByte ‖ the three sums. Tests use it to
// push a mutation past the checksum layer so the structural validation is
// what must reject it.
func reseal(data []byte) {
	n := binary.LittleEndian.Uint64(data[16:])
	arcs := binary.LittleEndian.Uint64(data[24:])
	flags := binary.LittleEndian.Uint32(data[12:])
	offsetsEnd := uint64(headerSize) + 8*(n+1)
	adjEnd := offsetsEnd + 4*arcs
	weightsEnd := adjEnd
	weightedByte := byte(0)
	if flags&FlagWeighted != 0 {
		weightsEnd += 8 * arcs
		weightedByte = 1
	}
	// Independent reference implementation of the chunked section sum:
	// word-wise FNV-1a per 1 MiB chunk, chunk sums folded byte-wise.
	const prime = 1099511628211
	sectionSum := func(b []byte) uint64 {
		fold := uint64(fnvOffset64)
		for start := 0; start < len(b); start += graph.SectionChunkBytes {
			end := min(start+graph.SectionChunkBytes, len(b))
			h := uint64(fnvOffset64)
			for p := start; p < end; p += 8 {
				h = (h ^ binary.LittleEndian.Uint64(b[p:])) * prime
			}
			var le [8]byte
			binary.LittleEndian.PutUint64(le[:], h)
			fold = fnv64a(fold, le[:])
		}
		return fold
	}
	offsetsSum := sectionSum(data[headerSize:offsetsEnd])
	adjSum := sectionSum(data[offsetsEnd:adjEnd])
	var weightsSum uint64
	if weightedByte == 1 {
		weightsSum = sectionSum(data[adjEnd:weightsEnd])
	}
	var fold [41]byte
	binary.LittleEndian.PutUint64(fold[0:], n)
	binary.LittleEndian.PutUint64(fold[8:], arcs)
	fold[16] = weightedByte
	binary.LittleEndian.PutUint64(fold[17:], offsetsSum)
	binary.LittleEndian.PutUint64(fold[25:], adjSum)
	binary.LittleEndian.PutUint64(fold[33:], weightsSum)
	binary.LittleEndian.PutUint64(data[32:], fnv64a(fnvOffset64, fold[:]))
	binary.LittleEndian.PutUint64(data[40:], offsetsSum)
	binary.LittleEndian.PutUint64(data[48:], adjSum)
	binary.LittleEndian.PutUint64(data[56:], weightsSum)
	binary.LittleEndian.PutUint64(data[offHeaderSum:], fnv64a(fnvOffset64, data[:offHeaderSum]))
}

// TestGoldenLayout pins the on-disk byte layout: any change to the header
// fields, section order, endianness, checksum definition, or fingerprint
// definition changes these bytes and must bump the format version
// instead.
func TestGoldenLayout(t *testing.T) {
	const goldenUnweighted = "4d5058534e415000010000000000000003000000000000000400000000000000" +
		"aa2131f13eeee75c6bae5113341f0ab16d690be54a0bcba10000000000000000" +
		"bac56bb762bd438f000000000000000001000000000000000300000000000000" +
		"040000000000000001000000000000000200000001000000"
	const goldenWeighted = "4d5058534e415000010000000100000003000000000000000400000000000000b6" +
		"f7a96bd1b757426bae5113341f0ab16d690be54a0bcba1865e5743ecf608ad9638" +
		"af09134a27e1000000000000000001000000000000000300000000000000040000" +
		"000000000001000000000000000200000001000000000000000000044000000000" +
		"00000440000000000000f03f000000000000f03f"

	got := hex.EncodeToString(encodeUnweighted(t, graph.Path(3)))
	if got != goldenUnweighted {
		t.Errorf("unweighted Path(3) bytes changed:\n got %s\nwant %s", got, goldenUnweighted)
	}
	wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2.5}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(encodeWeighted(t, wg)); got != goldenWeighted {
		t.Errorf("weighted bytes changed:\n got %s\nwant %s", got, goldenWeighted)
	}
}

func assertGraphEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	ao, bo := a.Offsets(), b.Offsets()
	aa, ba := a.Adjacency(), b.Adjacency()
	if len(ao) != len(bo) || len(aa) != len(ba) {
		t.Fatalf("shape differs: offsets %d vs %d, arcs %d vs %d", len(ao), len(bo), len(aa), len(ba))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("offsets differ at %d", i)
		}
	}
	for i := range aa {
		if aa[i] != ba[i] {
			t.Fatalf("adjacency differs at arc %d", i)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestRoundTripUnweighted checks write → decode bit-identity (CSR arrays
// and fingerprint) across graph shapes, including the empty graph and the
// zero value.
func TestRoundTripUnweighted(t *testing.T) {
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{
		graph.Grid2D(7, 9),
		graph.GNM(500, 2000, 11),
		graph.Path(2),
		empty,
		{}, // zero value canonicalizes to the empty snapshot
	} {
		data := encodeUnweighted(t, g)
		s, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if s.Weighted() != nil {
			t.Fatalf("%v: unweighted snapshot decoded a weighted view", g)
		}
		if g.NumVertices() > 0 {
			assertGraphEqual(t, g, s.Graph())
		}
		if s.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%v: fingerprint %016x != %016x", g, s.Fingerprint(), g.Fingerprint())
		}
		// Canonical re-encode: decode → write reproduces the input bytes.
		if !bytes.Equal(encodeUnweighted(t, s.Graph()), data) {
			t.Fatalf("%v: re-encode changed bytes", g)
		}
	}
}

// TestWriteApplyBatchResult writes graphs ApplyBatch returned — an
// overlay, an overlay of an overlay that undoes an insert, and a batch
// past the splice bound — and requires the bytes of their FromEdgesDedup
// twins: a snapshot does not depend on how a graph is stored.
func TestWriteApplyBatchResult(t *testing.T) {
	base := graph.Grid2D(30, 40)
	set := make(map[graph.Edge]bool)
	for _, e := range base.Edges() {
		set[e] = true
	}
	many := graph.Batch{}
	for v := uint32(0); v+600 < 1200; v += 7 {
		many.Insert = append(many.Insert, graph.Edge{U: v, V: v + 600})
	}
	// Each batch applies to the previous step's graph.
	steps := []struct {
		name string
		b    graph.Batch
	}{
		{"overlay", graph.Batch{Insert: []graph.Edge{{U: 0, V: 1199}, {U: 5, V: 900}}, Delete: []graph.Edge{{U: 0, V: 1}}}},
		{"overlay of an overlay", graph.Batch{Insert: []graph.Edge{{U: 17, V: 640}}, Delete: []graph.Edge{{U: 0, V: 1199}}}},
		{"past the splice bound", many},
	}
	// Derive every graph before writing any: a write splices its graph,
	// and the second batch must apply to an unspliced overlay.
	gs := []*graph.Graph{base}
	for i, st := range steps {
		g, _, err := graph.ApplyBatch(gs[i], st.b)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for i, st := range steps {
		for _, e := range st.b.Delete {
			delete(set, graph.Edge{U: min(e.U, e.V), V: max(e.U, e.V)})
		}
		for _, e := range st.b.Insert {
			set[graph.Edge{U: min(e.U, e.V), V: max(e.U, e.V)}] = true
		}
		edges := make([]graph.Edge, 0, len(set))
		for e := range set {
			edges = append(edges, e)
		}
		twin, err := graph.FromEdgesDedup(base.NumVertices(), edges)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeUnweighted(t, gs[i+1]), encodeUnweighted(t, twin)) {
			t.Fatalf("%s: snapshot bytes differ from the FromEdgesDedup twin's", st.name)
		}
	}
}

// TestRoundTripWeighted covers the weight payload: exact float64 bit
// round-trip and the weighted fingerprint.
func TestRoundTripWeighted(t *testing.T) {
	wg := graph.RandomWeights(graph.GNM(300, 1200, 5), 1, 8, 3)
	data := encodeWeighted(t, wg)
	s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Weighted()
	if got == nil {
		t.Fatal("weighted snapshot lost its weights")
	}
	assertGraphEqual(t, wg.Unweighted(), got.Unweighted())
	aw, bw := wg.Weights(), got.Weights()
	for i := range aw {
		if math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
			t.Fatalf("weight bits differ at arc %d", i)
		}
	}
	if s.Fingerprint() != wg.Fingerprint() {
		t.Fatalf("fingerprint %016x != %016x", s.Fingerprint(), wg.Fingerprint())
	}
	if wg.Fingerprint() == wg.Unweighted().Fingerprint() {
		t.Fatal("weighted and unweighted fingerprints collide")
	}
	if !bytes.Equal(encodeWeighted(t, got), data) {
		t.Fatal("re-encode changed bytes")
	}
}

// TestLoadMmap exercises the file path: Load must memory-map on unix,
// serve the identical graph, and survive Close (including double Close).
func TestLoadMmap(t *testing.T) {
	g := graph.Grid2D(20, 30)
	path := filepath.Join(t.TempDir(), "g.mpxsnap")
	if err := WriteFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd":
		if !s.Mapped() {
			t.Error("Load did not mmap on a unix platform")
		}
	}
	assertGraphEqual(t, g, s.Graph())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if s.Graph() != nil {
		t.Fatal("Graph() still set after Close")
	}
}

// TestWriteFileAtomic checks the rename discipline: a failed write leaves
// nothing at the target path.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.mpxsnap")
	if err := WriteFile(path, graph.Path(4), nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.mpxsnap" {
		t.Fatalf("directory not clean after write: %v", entries)
	}
}

// TestHostileInputs is the corrupt-snapshot table: every mutation class
// must fail with its typed error, never a panic or a silently wrong
// graph. Structural mutations are resealed (checksums and fingerprint
// recomputed) so the CSR validation layer is what rejects them.
func TestHostileInputs(t *testing.T) {
	base := func() []byte { return encodeUnweighted(t, graph.Path(3)) }
	wbase := func() []byte {
		wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2.5}, {U: 1, V: 2, W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return encodeWeighted(t, wg)
	}
	cases := []struct {
		name   string
		mutate func() []byte
		want   error
	}{
		{"empty", func() []byte { return nil }, ErrTruncated},
		{"truncated header", func() []byte { return base()[:71] }, ErrTruncated},
		{"header only", func() []byte { return base()[:headerSize] }, ErrTruncated},
		{"truncated payload", func() []byte { d := base(); return d[:len(d)-1] }, ErrTruncated},
		{"trailing garbage", func() []byte { return append(base(), 0) }, ErrTruncated},
		{"bad magic", func() []byte { d := base(); d[0] = 'X'; return d }, ErrBadMagic},
		{"flipped header bit", func() []byte { d := base(); d[17] ^= 1; return d }, ErrChecksum},
		{"wrong version", func() []byte {
			d := base()
			binary.LittleEndian.PutUint32(d[8:], 2)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrVersion},
		{"unknown flag", func() []byte {
			d := base()
			binary.LittleEndian.PutUint32(d[12:], 2)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrFlags},
		{"odd arcs", func() []byte {
			d := base()
			binary.LittleEndian.PutUint64(d[24:], 5)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrHeader},
		{"huge n", func() []byte {
			d := base()
			binary.LittleEndian.PutUint64(d[16:], 1<<50)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrHeader},
		{"weights checksum without flag", func() []byte {
			d := base()
			binary.LittleEndian.PutUint64(d[56:], 1)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrHeader},
		{"corrupt offsets", func() []byte { d := base(); d[headerSize] ^= 1; return d }, ErrChecksum},
		{"corrupt adjacency", func() []byte { d := base(); d[len(d)-1] ^= 1; return d }, ErrChecksum},
		{"corrupt weights", func() []byte { d := wbase(); d[len(d)-1] ^= 1; return d }, ErrChecksum},
		{"wrong fingerprint", func() []byte {
			d := base()
			binary.LittleEndian.PutUint64(d[32:], 0xdeadbeef)
			binary.LittleEndian.PutUint64(d[offHeaderSum:], fnv64a(fnvOffset64, d[:offHeaderSum]))
			return d
		}, ErrChecksum},
		{"out-of-range adjacency", func() []byte {
			d := base()
			binary.LittleEndian.PutUint32(d[len(d)-4:], 99) // last arc -> vertex 99 of 3
			reseal(d)
			return d
		}, graph.ErrInvalidCSR},
		{"unsorted adjacency", func() []byte {
			d := base()
			// Vertex 1's list is [0, 2]; swap to [2, 0].
			binary.LittleEndian.PutUint32(d[len(d)-12:], 2)
			binary.LittleEndian.PutUint32(d[len(d)-8:], 0)
			reseal(d)
			return d
		}, graph.ErrInvalidCSR},
		{"self loop", func() []byte {
			d := base()
			binary.LittleEndian.PutUint32(d[len(d)-4:], 2) // vertex 2 lists itself
			reseal(d)
			return d
		}, graph.ErrInvalidCSR},
		{"offsets start nonzero", func() []byte {
			d := base()
			binary.LittleEndian.PutUint64(d[headerSize:], 1)
			reseal(d)
			return d
		}, graph.ErrInvalidCSR},
		{"offsets decrease", func() []byte {
			d := base()
			// offsets are [0,1,3,4]; make the middle one 9 > 4... decreasing after.
			binary.LittleEndian.PutUint64(d[headerSize+16:], 9)
			reseal(d)
			return d
		}, graph.ErrInvalidCSR},
		{"bad weight bits", func() []byte {
			d := wbase()
			binary.LittleEndian.PutUint64(d[len(d)-8:], math.Float64bits(math.NaN()))
			reseal(d)
			return d
		}, nil}, // any error is fine, but it must be an error
	}
	for _, tc := range cases {
		data := tc.mutate()
		s, err := Decode(data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
			_ = s.Close()
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestLoadErrors covers the file-level failure paths of Load.
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.mpxsnap")); err == nil {
		t.Error("Load of a missing file succeeded")
	}
	short := filepath.Join(dir, "short.mpxsnap")
	if err := os.WriteFile(short, []byte("MPXSNAP\x00tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short file: error %v, want ErrTruncated", err)
	}
	trunc := filepath.Join(dir, "trunc.mpxsnap")
	data := encodeUnweighted(t, graph.Grid2D(5, 5))
	if err := os.WriteFile(trunc, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(trunc); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated file: error %v, want ErrTruncated", err)
	}
}

// TestOpenAnyDispatch checks OpenAny's snapshot arm: snapshots dispatch
// by magic, the update-trace / CLI loading path gets the same graph as a
// direct Load, and the reported fingerprint is the verified header value.
func TestOpenAnyDispatch(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid2D(8, 6)
	upath := filepath.Join(dir, "u.mpxsnap")
	if err := WriteFile(upath, g, nil); err != nil {
		t.Fatal(err)
	}
	o, err := OpenAny(upath)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Format != "snapshot" {
		t.Fatalf("format %q, want snapshot", o.Format)
	}
	if o.Weighted != nil {
		t.Fatal("unweighted snapshot opened weighted")
	}
	assertGraphEqual(t, g, o.Graph)
	if o.Fingerprint != g.Fingerprint() {
		t.Fatalf("Opened.Fingerprint %016x, want %016x", o.Fingerprint, g.Fingerprint())
	}

	wg := graph.RandomWeights(g, 1, 4, 9)
	wpath := filepath.Join(dir, "w.mpxsnap")
	if err := WriteFile(wpath, nil, wg); err != nil {
		t.Fatal(err)
	}
	ow, err := OpenAny(wpath)
	if err != nil {
		t.Fatal(err)
	}
	defer ow.Close()
	if ow.Format != "snapshot" || ow.Weighted == nil {
		t.Fatalf("weighted snapshot: format %q weighted %v", ow.Format, ow.Weighted != nil)
	}
	if ow.Weighted.Fingerprint() != wg.Fingerprint() {
		t.Fatal("weighted fingerprint changed through OpenAny")
	}
	if ow.Fingerprint != wg.Fingerprint() {
		t.Fatalf("weighted Opened.Fingerprint %016x, want %016x", ow.Fingerprint, wg.Fingerprint())
	}
}

// TestDecodeUnaligned drives the copying view fallback: a snapshot
// decoded from a buffer that is not 8-byte aligned must serve the
// identical graph, weight bits and fingerprint.
func TestDecodeUnaligned(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(6, 7), 1, 4, 5)
	data := encodeWeighted(t, wg)
	odd := make([]byte, len(data)+1)[1:]
	copy(odd, data)
	s, err := Decode(odd)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertGraphEqual(t, wg.Unweighted(), s.Graph())
	aw, bw := wg.Weights(), s.Weighted().Weights()
	for i := range aw {
		if math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
			t.Fatalf("weight bits differ at arc %d", i)
		}
	}
	if s.Fingerprint() != wg.Fingerprint() {
		t.Fatalf("fingerprint %016x != %016x", s.Fingerprint(), wg.Fingerprint())
	}
}
