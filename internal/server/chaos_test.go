package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"mpx/internal/parallel"
	"mpx/internal/parallel/faultpool"
)

// serveDirect drives the handler without a network, so the request can
// carry a fault-injection context (faultpool.CheckCtx).
func serveDirect(s *Server, ctx context.Context, method, path string, body []byte) (int, http.Header, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// registerDirect registers data via serveDirect and returns the
// fingerprint hex.
func registerDirect(t *testing.T, s *Server, data []byte) string {
	t.Helper()
	code, _, body := serveDirect(s, nil, http.MethodPost, "/v1/graphs", data)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("register: status %d, body %s", code, body)
	}
	var resp registerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("register response: %v", err)
	}
	return resp.Fingerprint
}

// TestCancelAtEveryBuildBoundary cancels a build at every engine boundary
// poll, one request per boundary. Each attempt must fail all-or-nothing —
// typed 503 cancelled, no cache entry, no retained hierarchy — and a
// clean retry must reproduce the exact bytes an undisturbed server
// computes.
func TestCancelAtEveryBuildBoundary(t *testing.T) {
	snap := gridSnapshotBytes(t, 8, 8, false)
	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 42})

	// Probe on a throwaway server: count the boundary polls of this exact
	// workload and capture the golden response bytes.
	probe, _ := newTestServer(t, Config{})
	pfp := registerDirect(t, probe, snap)
	cc := faultpool.CancelAtCheck(1 << 30)
	code, _, golden := serveDirect(probe, cc, http.MethodPost, "/v1/graphs/"+pfp+"/build", buildBody)
	if code != http.StatusOK {
		t.Fatalf("probe build: status %d, body %s", code, golden)
	}
	polls := cc.Polls()
	if polls < 2 {
		t.Fatalf("workload polled the context only %d times; boundary sweep is vacuous", polls)
	}

	s, _ := newTestServer(t, Config{})
	fp := registerDirect(t, s, snap)
	buildPath := "/v1/graphs/" + fp + "/build"
	for i := 1; i <= polls; i++ {
		code, _, body := serveDirect(s, faultpool.CancelAtCheck(i), http.MethodPost, buildPath, buildBody)
		if code != http.StatusServiceUnavailable || errKind(t, body) != kindCancelled {
			t.Fatalf("boundary %d/%d: status %d kind %q, want 503 cancelled (body %s)",
				i, polls, code, errKind(t, body), body)
		}
		if n := s.cacheEntries(); n != 0 {
			t.Fatalf("boundary %d: cancelled build left %d cache entries", i, n)
		}
	}
	fpBits, _ := parseFingerprint(fp)
	e := s.reg.acquire(fpBits)
	if n := e.buildCount(); n != 0 {
		t.Fatalf("%d cancelled builds retained %d hierarchies", polls, n)
	}
	s.reg.release(e)

	// Clean retry: byte-identical to the undisturbed server's body.
	code, hdr, retry := serveDirect(s, nil, http.MethodPost, buildPath, buildBody)
	if code != http.StatusOK || hdr.Get("X-Mpxd-Cache") != "miss" {
		t.Fatalf("clean retry: status %d, cache %q", code, hdr.Get("X-Mpxd-Cache"))
	}
	if !bytes.Equal(retry, golden) {
		t.Fatalf("retry after %d cancellations is not golden:\nwant %s\ngot  %s", polls, golden, retry)
	}
}

// TestPanicAtEveryBuildBoundary poisons the request context so its Err()
// panics at each boundary poll in turn: the engines must contain the
// panic (typed 503 fault, handler recovery never involved) and stay
// fully usable.
func TestPanicAtEveryBuildBoundary(t *testing.T) {
	snap := gridSnapshotBytes(t, 8, 8, false)
	buildBody := jsonBody(t, map[string]any{"app": "connectivity", "beta": 0.3, "seed": 5})

	probe, _ := newTestServer(t, Config{})
	pfp := registerDirect(t, probe, snap)
	cc := faultpool.CancelAtCheck(1 << 30)
	code, _, golden := serveDirect(probe, cc, http.MethodPost, "/v1/graphs/"+pfp+"/build", buildBody)
	if code != http.StatusOK {
		t.Fatalf("probe build: status %d, body %s", code, golden)
	}
	polls := cc.Polls()

	s, _ := newTestServer(t, Config{})
	fp := registerDirect(t, s, snap)
	buildPath := "/v1/graphs/" + fp + "/build"
	for i := 1; i <= polls; i++ {
		code, _, body := serveDirect(s, faultpool.PanicAtCheck(i), http.MethodPost, buildPath, buildBody)
		if code != http.StatusServiceUnavailable || errKind(t, body) != kindFault {
			t.Fatalf("poll %d/%d: status %d kind %q, want 503 fault (body %s)",
				i, polls, code, errKind(t, body), body)
		}
	}
	if n := s.Panics(); n != 0 {
		t.Fatalf("handler recovery fired %d times; engine containment must catch poisoned polls", n)
	}
	code, _, retry := serveDirect(s, nil, http.MethodPost, buildPath, buildBody)
	if code != http.StatusOK || !bytes.Equal(retry, golden) {
		t.Fatalf("retry after poisoned polls: status %d\nwant %s\ngot  %s", code, golden, retry)
	}
}

// TestPanicAtSubmissionFaults injects worker-pool faults at sampled
// submission points throughout a build (engine kernels and post-build
// oracle construction alike): each surfaces as a typed 503 fault, the
// shared pool stays reusable, and the clean retry is bit-identical.
func TestPanicAtSubmissionFaults(t *testing.T) {
	pool := parallel.NewPool(0)
	defer pool.Close()
	snap := gridSnapshotBytes(t, 8, 8, false)
	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 7})

	// Probe on a throwaway server sharing the pool: measure the workload's
	// submission count and capture the golden bytes.
	probe, _ := newTestServer(t, Config{Pool: pool})
	pfp := registerDirect(t, probe, snap)
	faultpool.Observe(pool)
	base := pool.SubmitCount()
	code, _, golden := serveDirect(probe, nil, http.MethodPost, "/v1/graphs/"+pfp+"/build", buildBody)
	if code != http.StatusOK {
		t.Fatalf("probe build: status %d, body %s", code, golden)
	}
	total := pool.SubmitCount() - base
	faultpool.Clear(pool)
	if total < 4 {
		t.Fatalf("workload made only %d pool submissions; fault sweep is vacuous", total)
	}

	s, _ := newTestServer(t, Config{Pool: pool})
	fp := registerDirect(t, s, snap)
	buildPath := "/v1/graphs/" + fp + "/build"
	for _, n := range []int64{1, total / 4, total / 2, 3 * total / 4, total} {
		faultpool.PanicAtSubmission(pool, n)
		code, _, body := serveDirect(s, nil, http.MethodPost, buildPath, buildBody)
		faultpool.Clear(pool)
		if code != http.StatusServiceUnavailable || errKind(t, body) != kindFault {
			t.Fatalf("submission %d/%d: status %d kind %q, want 503 fault (body %s)",
				n, total, code, errKind(t, body), body)
		}
		if cn := s.cacheEntries(); cn != 0 {
			t.Fatalf("submission %d: faulted build left %d cache entries", n, cn)
		}
	}
	if n := s.Panics(); n != 0 {
		t.Fatalf("handler recovery fired %d times; pool containment must catch injected faults", n)
	}
	code, _, retry := serveDirect(s, nil, http.MethodPost, buildPath, buildBody)
	if code != http.StatusOK || !bytes.Equal(retry, golden) {
		t.Fatalf("retry on the faulted pool: status %d\nwant %s\ngot  %s", code, golden, retry)
	}
}

// TestConcurrentClientMix hammers one server with a deterministic mix of
// registers, builds, queries, evictions, and stats reads under -race.
// Weak per-request guarantees (a build may 429 under admission pressure, a
// query may 404 after an eviction) but two strong global ones: every 200
// build body for the same configuration is byte-identical, and no handler
// ever panics.
func TestConcurrentClientMix(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBuilds: 2})
	snapA := gridSnapshotBytes(t, 8, 8, false)
	snapB := []byte(smallDIMACS)
	fpA := register(t, ts.URL, snapA)
	fpB := register(t, ts.URL, snapB)
	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 11})
	queryBody := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.25, "seed": 11,
		"op": "dist", "pairs": [][]uint32{{0, 63}},
	})

	var mu sync.Mutex
	var canonical []byte
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				switch (g + i) % 4 {
				case 0: // idempotent re-register of A
					code, _, body := httpBody(t, http.MethodPost, ts.URL+"/v1/graphs", snapA)
					if code != http.StatusOK && code != http.StatusCreated {
						t.Errorf("re-register: status %d, body %s", code, body)
					}
				case 1: // build A; 200 bodies must agree bit-for-bit
					code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fpA), buildBody)
					switch code {
					case http.StatusOK:
						mu.Lock()
						if canonical == nil {
							canonical = body
						} else if !bytes.Equal(canonical, body) {
							t.Errorf("build bodies diverged:\n%s\n%s", canonical, body)
						}
						mu.Unlock()
					case http.StatusTooManyRequests:
					default:
						t.Errorf("build: status %d, body %s", code, body)
					}
				case 2: // query A; 404 until its build lands
					code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fpA), queryBody)
					if code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("query: status %d, body %s", code, body)
					}
				case 3: // churn B: evict (may already be gone) and re-register
					httpBody(t, http.MethodDelete, fmtURL(ts.URL, "/v1/graphs/%s", fpB), nil)
					code, _, body := httpBody(t, http.MethodPost, ts.URL+"/v1/graphs", snapB)
					if code != http.StatusOK && code != http.StatusCreated {
						t.Errorf("re-register B: status %d, body %s", code, body)
					}
					code, _, body = httpBody(t, http.MethodGet, ts.URL+"/v1/stats", nil)
					if code != http.StatusOK {
						t.Errorf("stats: status %d, body %s", code, body)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if canonical == nil {
		t.Fatal("no build ever got through admission; mix is vacuous")
	}
	// The settled server answers the query against the canonical build.
	code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fpA), queryBody)
	if code != http.StatusOK {
		t.Fatalf("settled query: status %d, body %s", code, body)
	}
	if s.Panics() != 0 {
		t.Fatalf("handlers recovered %d panics under load", s.Panics())
	}
}

// TestNoGoroutineLeakAcrossLifecycle runs a full lifecycle — including a
// cancelled build — and checks the goroutine count settles back to where
// it started once the server, pool, and client are shut down.
func TestNoGoroutineLeakAcrossLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()

	pool := parallel.NewPool(0)
	s, err := New(Config{Pool: pool})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	fp := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, false))
	buildBody := jsonBody(t, map[string]any{"app": "blocks", "beta": 0.25, "seed": 3})
	code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), buildBody)
	if code != http.StatusOK {
		t.Fatalf("build: status %d, body %s", code, body)
	}
	if code, _, body := serveDirect(s, faultpool.CancelAtCheck(1), http.MethodPost,
		"/v1/graphs/"+fp+"/build", jsonBody(t, map[string]any{"app": "blocks", "beta": 0.25, "seed": 4})); code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled build: status %d, body %s", code, body)
	}
	httpBody(t, http.MethodDelete, fmtURL(ts.URL, "/v1/graphs/%s", fp), nil)

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	pool.Close()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, base)
}
