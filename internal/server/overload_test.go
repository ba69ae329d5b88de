package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"
)

// parkedGate returns a buildGate that parks every admitted build until
// release is closed, and signals entry on entered (capacity must cover
// the expected parks). After release closes, the gate is a no-op — the
// gate itself is never mutated, so handler reads stay race-free.
func parkedGate(entered chan struct{}, release chan struct{}) func() {
	return func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
}

// postAsync fires a POST in a goroutine and delivers the outcome on a
// channel (helpers that t.Fatal must stay on the test goroutine).
type asyncResp struct {
	code int
	body []byte
	err  error
}

func postAsync(url string, body []byte) chan asyncResp {
	ch := make(chan asyncResp, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- asyncResp{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		ch <- asyncResp{code: resp.StatusCode, body: data, err: err}
	}()
	return ch
}

// TestOverload429AndRecovery fills the single admission slot with a
// parked build: the next build gets an immediate 429 with Retry-After
// and the overloaded kind, cache hits keep flowing (no slot needed), and
// once the slot drains the same rejected build succeeds.
func TestOverload429AndRecovery(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxBuilds: 1})
	s.buildGate = parkedGate(entered, release)

	fp := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, false))
	buildURL := fmtURL(ts.URL, "/v1/graphs/%s/build", fp)
	parked := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1})
	other := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 2})

	first := postAsync(buildURL, parked)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("parked build never reached the gate")
	}

	// Slot is held: a second build is refused, typed and immediate.
	code, hdr, body := httpBody(t, http.MethodPost, buildURL, other)
	if code != http.StatusTooManyRequests || errKind(t, body) != kindOverloaded {
		t.Fatalf("overloaded build: status %d, body %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// Stats see the in-flight build; health stays up.
	code, _, stats := httpBody(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if code != http.StatusOK || !bytes.Contains(stats, []byte(`"inflightBuilds":1`)) {
		t.Fatalf("stats under load: %s", stats)
	}

	close(release)
	r := <-first
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("parked build: code %d err %v body %s", r.code, r.err, r.body)
	}

	// The slot has drained: the rejected configuration now builds fine,
	// and the parked one is a cache hit (no admission involved).
	code, _, body = httpBody(t, http.MethodPost, buildURL, other)
	if code != http.StatusOK {
		t.Fatalf("build after drain: status %d, body %s", code, body)
	}
	code, hdr, body = httpBody(t, http.MethodPost, buildURL, parked)
	if code != http.StatusOK || hdr.Get("X-Mpxd-Cache") != "hit" {
		t.Fatalf("cached build after drain: status %d cache %q body %s", code, hdr.Get("X-Mpxd-Cache"), body)
	}
	if !bytes.Equal(body, r.body) {
		t.Fatalf("cache hit differs from the parked build's body:\n%s\n%s", r.body, body)
	}
}

// TestShutdownDrainsInflight pins the graceful-shutdown contract: an
// in-flight build runs to completion and delivers its full response, new
// requests are refused with a typed 503, an expired drain budget
// surfaces as ctx.Err() while the work still drains, and a later
// Shutdown returns nil.
func TestShutdownDrainsInflight(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxBuilds: 1})
	s.buildGate = parkedGate(entered, release)

	fp := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, false))
	buildURL := fmtURL(ts.URL, "/v1/graphs/%s/build", fp)
	buildBody := jsonBody(t, map[string]any{"app": "connectivity", "beta": 0.25, "seed": 1})

	inflight := postAsync(buildURL, buildBody)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("build never reached the gate")
	}

	// Drain budget already spent: Shutdown reports it but keeps draining.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); err != context.Canceled {
		t.Fatalf("Shutdown with expired ctx = %v, want context.Canceled", err)
	}

	// The server now refuses new work, typed.
	code, _, body := httpBody(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if code != http.StatusServiceUnavailable || errKind(t, body) != kindShuttingDown {
		t.Fatalf("request during shutdown: status %d, body %s", code, body)
	}

	// The in-flight build still completes with its full response.
	close(release)
	r := <-inflight
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight build during shutdown: code %d err %v body %s", r.code, r.err, r.body)
	}
	if !bytes.Contains(r.body, []byte(`"components":1`)) {
		t.Fatalf("drained build delivered a truncated body: %s", r.body)
	}

	// Fully drained: Shutdown returns promptly and idempotently.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestEvictDuringBuild deletes a graph while a build on it is parked, then
// releases the build: its response reaches its client, but it is retained
// nowhere. Re-registering the same bytes and building again must compute
// afresh (a miss, byte-identical to the first body), and the rebuilt
// oracle must answer queries. A build body that outlived its graph used to
// answer the rebuild as a hit with no oracle behind it, so every query
// was a 404.
func TestEvictDuringBuild(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxBuilds: 1})
	s.buildGate = parkedGate(entered, release)

	snap := gridSnapshotBytes(t, 8, 8, false)
	fp := register(t, ts.URL, snap)
	buildURL := fmtURL(ts.URL, "/v1/graphs/%s/build", fp)
	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1})

	first := postAsync(buildURL, buildBody)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("parked build never reached the gate")
	}
	code, _, body := httpBody(t, http.MethodDelete, fmtURL(ts.URL, "/v1/graphs/%s", fp), nil)
	if code != http.StatusOK {
		t.Fatalf("evict: status %d, body %s", code, body)
	}
	close(release)
	r := <-first
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("parked build: code %d err %v body %s", r.code, r.err, r.body)
	}
	if n := s.cacheEntries(); n != 0 {
		t.Fatalf("a build of an evicted graph left %d cache entries", n)
	}

	if got := register(t, ts.URL, snap); got != fp {
		t.Fatalf("re-register fingerprint %s, want %s", got, fp)
	}
	code, hdr, again := httpBody(t, http.MethodPost, buildURL, buildBody)
	if code != http.StatusOK || hdr.Get("X-Mpxd-Cache") != "miss" {
		t.Fatalf("build after re-register: status %d, cache %q", code, hdr.Get("X-Mpxd-Cache"))
	}
	if !bytes.Equal(again, r.body) {
		t.Fatalf("rebuilt body differs:\nwas: %s\nnow: %s", r.body, again)
	}
	query := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1, "op": "dist", "pairs": [][]uint32{{0, 63}}})
	code, _, body = httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), query)
	if code != http.StatusOK {
		t.Fatalf("query after rebuild: status %d, body %s", code, body)
	}
	if n := s.cacheEntries(); n != 1 {
		t.Fatalf("cache entries after rebuild = %d, want 1", n)
	}
}
