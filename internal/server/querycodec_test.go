package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// maxQueryAllocs bounds the allocations of one warmed dist request
// through Server.ServeHTTP, whatever its batch size. With encoding/json
// on both sides the count grew with the batch: this test measured 293 at
// 256 pairs and 4,146 at 4,096.
const maxQueryAllocs = 32

// discardWriter is a ResponseWriter that reuses its header map and
// discards the body, so a measurement counts only the server's own
// allocations.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestQueryAllocs gates the allocations of a warmed dist request through
// Server.ServeHTTP, from the body read to the response write, at 256
// pairs (answered inline) and 4,096 (sharded on the pool).
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	s, _ := newTestServer(t, Config{})
	fp := registerDirect(t, s, gridSnapshotBytes(t, 64, 64, false))
	cfg := map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1}
	if code, _, body := serveDirect(s, nil, http.MethodPost, "/v1/graphs/"+fp+"/build", jsonBody(t, cfg)); code != http.StatusOK {
		t.Fatalf("build: status %d, body %s", code, body)
	}
	for _, size := range []int{256, 4096} {
		pairs := make([][]uint32, size)
		for i := range pairs {
			pairs[i] = []uint32{uint32(i*7919) % 4096, uint32(i*104729) % 4096}
		}
		body := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1, "op": "dist", "pairs": pairs})
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+fp+"/query", nil)
		req.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			w.code = 0
			s.ServeHTTP(w, req)
		})
		if w.code != http.StatusOK {
			t.Fatalf("%d pairs: status %d", size, w.code)
		}
		t.Logf("%d pairs: %.1f allocations per request", size, allocs)
		if allocs > maxQueryAllocs {
			t.Errorf("%d pairs: %.1f allocations per request, want at most %d", size, allocs, maxQueryAllocs)
		}
	}
}

// TestConcurrentQueries sends mixed query shapes and sizes from several
// goroutines at once, so pooled request memory changes hands between
// them, and checks every body against the one the same request got
// alone. Two bodies take the encoding/json path: one with an escape,
// one with a pair of three vertices.
func TestConcurrentQueries(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fp := registerDirect(t, s, twoGridsSnapshotBytes(t, 8, 8, false))
	wfp := registerDirect(t, s, twoGridsSnapshotBytes(t, 8, 8, true))
	for _, b := range []struct{ fp, body string }{
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1}`},
		{wfp, `{"app":"lowstretch","weighted":true,"beta":0.25,"seed":1}`},
	} {
		if code, _, resp := serveDirect(s, nil, http.MethodPost, "/v1/graphs/"+b.fp+"/build", []byte(b.body)); code != http.StatusOK {
			t.Fatalf("build: status %d, body %s", code, resp)
		}
	}
	pairs := func(n int) string {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", i*37%128, i*91%128)
		}
		return b.String()
	}
	reqs := []struct {
		fp, body string
		code     int
	}{
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[` + pairs(3) + `]}`, http.StatusOK},
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[` + pairs(1000) + `]}`, http.StatusOK},
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1,"op":"same","level":1,"pairs":[` + pairs(300) + `]}`, http.StatusOK},
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1,"op":"cluster","level":0,"verts":[0,5,64,127,3]}`, http.StatusOK},
		{wfp, `{"app":"lowstretch","weighted":true,"beta":0.25,"seed":1,"op":"dist","pairs":[` + pairs(500) + `]}`, http.StatusOK},
		{fp, `{"app":"\u006cowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[` + pairs(20) + `]}`, http.StatusOK},
		{fp, `{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1],[0,1,2]]}`, http.StatusBadRequest},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		var code int
		code, _, want[i] = serveDirect(s, nil, http.MethodPost, "/v1/graphs/"+r.fp+"/query", []byte(r.body))
		if code != r.code {
			t.Fatalf("request %d alone: status %d, want %d (body %s)", i, code, r.code, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(reqs)
				_, _, got := serveDirect(s, nil, http.MethodPost, "/v1/graphs/"+reqs[k].fp+"/query", []byte(reqs[k].body))
				if !bytes.Equal(got, want[k]) {
					t.Errorf("request %d: body under concurrency\n%s\nwant\n%s", k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeStrictTrailing pins what may follow the object in a build or
// query body: JSON whitespace only.
func TestDecodeStrictTrailing(t *testing.T) {
	for _, tc := range []struct {
		body string
		want error
	}{
		{`{"app":"lowstretch"}`, nil},
		{"{\"app\":\"lowstretch\"} \t\r\n", nil},
		{`{"app":"lowstretch"}}`, errTrailing},
		{`{"app":"lowstretch"} ]]]`, errTrailing},
		{`{"app":"lowstretch"} {}`, errTrailing},
		{"{\"app\":\"lowstretch\"}\x00", errTrailing},
	} {
		var req buildRequest
		if err := decodeStrict([]byte(tc.body), &req); !errors.Is(err, tc.want) {
			t.Errorf("%q: error %v, want %v", tc.body, err, tc.want)
		}
	}
}

// FuzzQueryCodec checks the query route's reflection-free codec against
// encoding/json, the reference it replaces:
//   - whenever decodeFast accepts a body, decodeStrict accepts the same
//     bytes, and both yield the same query, pairs included. decodeFast
//     reuses one query across inputs, as the handler's pool does;
//   - appendQueryResponse writes marshalBody's bytes for a response
//     drawn from the input, with fixed wdists that cover both of
//     encoding/json's float formats, or declines exactly when
//     json.Marshal fails on a non-finite wdist.
//
// The seeds are the query bodies of the hostile-input table plus shapes
// at the edge of what decodeFast accepts.
func FuzzQueryCodec(f *testing.F) {
	base := map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1}
	for _, kv := range []map[string]any{
		{"app": "blocks", "op": "dist", "pairs": [][]uint32{{0, 1}}},
		{"op": "shortestpath", "pairs": [][]uint32{{0, 1}}},
		{"beta": 0.5, "seed": 99, "op": "dist", "pairs": [][]uint32{{0, 1}}},
		{"op": "dist", "level": 0, "pairs": [][]uint32{{0, 1}}},
		{"op": "dist", "pairs": [][]uint32{{0, 1}}, "verts": []uint32{0}},
		{"op": "dist", "pairs": [][]uint32{}},
		{"op": "dist", "pairs": [][]uint32{{0, 1, 2}}},
		{"op": "dist", "pairs": [][]uint32{{0, 64}}},
		{"op": "cluster", "verts": []uint32{0}},
		{"op": "cluster", "level": 99, "verts": []uint32{0}},
		{"op": "cluster", "level": -1, "verts": []uint32{0}},
		{"op": "cluster", "level": 0, "pairs": [][]uint32{{0, 1}}},
		{"op": "cluster", "level": 0, "verts": []uint32{64}},
		{"op": "same", "pairs": [][]uint32{{0, 1}}},
		{"op": "same", "level": 1, "pairs": [][]uint32{{0, 1}, {4294967295, 0}}},
		{"weighted": true, "op": "dist", "pairs": [][]uint32{{0, 5}, {2, 2}}},
	} {
		m := map[string]any{}
		for k, v := range base {
			m[k] = v
		}
		for k, v := range kv {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range []string{
		`null null`,
		`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1]]}}`,
		`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1]]} ]]]`,
		"\t{ \"app\" : \"lowstretch\" , \"weighted\" : false , \"beta\" : 1e-7 , \"seed\" : 0 , \"op\" : \"dist\" , \"pairs\" : [ [ 0 , 1 ] , [2,3] ] }\r\n",
		`{"app":"lowstretch","beta":-0,"seed":18446744073709551615,"op":"cluster","level":0,"verts":[]}`,
		`{"app":"lowstretch","beta":2.5E+3,"seed":18446744073709551616,"op":"dist","pairs":[[0,1]]}`,
		`{"app":"lowstretch","beta":1e400,"seed":1,"op":"dist","pairs":[[0,1]]}`,
		`{"app":"lowstretch","beta":0.25,"seed":01,"op":"dist","pairs":[[0,1]]}`,
		`{"app":"lowstretch","beta":0.25,"seed":1.0,"op":"dist","pairs":[[0,4294967296]]}`,
		`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1e0]]}`,
		`{"App":"lowstretch","BETA":0.25,"seed":1,"op":"dist","pairs":[[0,1]]}`,
		`{"app":"lowstretch","app":"blocks","op":"dist","op":"same","pairs":[[0,1]]}`,
		`{"app":"lowstretch","op":"d\"ist","pairs":[[0,1]],"verts":null,"level":null}`,
		`{"app":"lowstretch","op":"dist","pairs":[[0,1],[0],[1,2,3],[]]}`,
		`{"app":"lowstretch","op":"dist","pairs":[[0,1]],"extra":1}`,
		"{\"app\":\"lo\xffw\",\"op\":\"\x7f\",\"pairs\":[[0,1]]}",
		`{}`,
		``,
	} {
		f.Add([]byte(b))
	}

	var q query // reused across inputs, as the handler's pool reuses it
	f.Fuzz(func(t *testing.T, body []byte) {
		var wire queryRequest
		strictErr := decodeStrict(body, &wire)
		if q.decodeFast(body) {
			if strictErr != nil {
				t.Fatalf("%q: decodeFast accepted what decodeStrict rejects: %v", body, strictErr)
			}
			var ref query
			ref.fromWire(&wire)
			sameQuery(t, body, &q, &ref)
		} else if strictErr == nil {
			// The handler's fallback: fromWire over what decodeFast left.
			var ref query
			ref.fromWire(&wire)
			q.fromWire(&wire)
			sameQuery(t, body, &q, &ref)
		}

		resp := responseFrom(body)
		got, ok := appendQueryResponse(nil, resp)
		if _, err := json.Marshal(resp); ok != (err == nil) {
			t.Fatalf("%q: appendQueryResponse ok=%v, json.Marshal error %v", body, ok, err)
		}
		if !ok {
			return
		}
		if want := marshalBody(resp); !bytes.Equal(got, want) {
			t.Fatalf("%q: encoder bytes differ from marshalBody\n got %s\nwant %s", body, got, want)
		}
	})
}

// sameQuery fails t unless got and want decode the same request.
func sameQuery(t *testing.T, body []byte, got, want *query) {
	t.Helper()
	levelsMatch := (got.Level == nil) == (want.Level == nil) &&
		(got.Level == nil || *got.Level == *want.Level)
	if got.App != want.App || got.Weighted != want.Weighted ||
		math.Float64bits(got.Beta) != math.Float64bits(want.Beta) || got.Seed != want.Seed ||
		got.Op != want.Op || !levelsMatch || got.hasPairs != want.hasPairs || got.hasVerts != want.hasVerts ||
		got.badPair != want.badPair || got.badArity != want.badArity ||
		len(got.Pairs) != len(want.Pairs) || len(got.Verts) != len(want.Verts) {
		t.Fatalf("%q: decoded\n %+v\nwant\n %+v", body, *got, *want)
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%q: pairs[%d] = %v, want %v", body, i, got.Pairs[i], want.Pairs[i])
		}
	}
	for i := range got.Verts {
		if got.Verts[i] != want.Verts[i] {
			t.Fatalf("%q: verts[%d] = %d, want %d", body, i, got.Verts[i], want.Verts[i])
		}
	}
}

// responseFrom draws a query response from fuzz input: every result
// array filled from its 8-byte words, and wdists led by values at the
// edges of encoding/json's float formats.
func responseFrom(b []byte) *queryResponse {
	ops := []string{"dist", "cluster", "same"}
	r := &queryResponse{
		Graph:    fpHex(bodyFNV(b)),
		Op:       ops[len(b)%3],
		Count:    len(b),
		Checksum: fpHex(uint64(len(b)) * fnvPrime),
		WDists: []float64{1e-7, 1e21, -1, 0, 1e-6, 9.999999999999999e20, 0.1 + 0.2,
			1.0 / 3, -2.5e-9, 5e-324, math.MaxFloat64, 123456.789e3},
	}
	if len(b)%2 == 1 {
		level := int(int8(b[0]))
		r.Level = &level
	}
	for ; len(b) >= 8; b = b[8:] {
		var x uint64
		for _, c := range b[:8] {
			x = x<<8 | uint64(c)
		}
		r.Dists = append(r.Dists, int32(x))
		r.WDists = append(r.WDists, math.Float64frombits(x))
		r.Clusters = append(r.Clusters, uint32(x>>32))
		r.Same = append(r.Same, x&1 == 1)
	}
	return r
}
