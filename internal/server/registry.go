package server

import (
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"

	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
)

// entry is one registered graph plus everything derived from it: the
// spooled upload backing it (a snapshot upload stays memory-mapped from
// the spool file), and the builds on it, with their response bodies, keyed
// by build configuration.
//
// Lifetime is ref-counted under the registry lock: the registry itself
// holds one reference while the graph is registered, and every in-flight
// build or query holds one for the duration of the request. DELETE drops
// the registry's reference immediately — new requests see 404 — but the
// backing resources are released only when the last in-flight reference
// goes away, so eviction never yanks a mapping out from under a build.
type entry struct {
	fp     uint64
	g      *graph.Graph
	wg     *graph.WeightedGraph // nil for unweighted sources
	format string
	path   string    // spool file backing the upload ("" for none)
	closer io.Closer // snapshot mapping owner (nil for text formats)

	refs int // guarded by registry.mu

	mu     sync.Mutex
	builds map[buildKey]*built
}

func (e *entry) destroy() {
	if e.closer != nil {
		e.closer.Close()
	}
	if e.path != "" {
		os.Remove(e.path)
	}
}

// getBuilt returns the retained build for k, or nil.
func (e *entry) getBuilt(k buildKey) *built {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.builds[k]
}

// putBuilt retains b under its key; when a concurrent identical build got
// there first, the first insert wins (the two are bit-identical anyway).
func (e *entry) putBuilt(b *built) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.builds == nil {
		e.builds = make(map[buildKey]*built)
	}
	if _, ok := e.builds[b.key]; !ok {
		e.builds[b.key] = b
	}
}

func (e *entry) buildCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.builds)
}

// registry is the in-memory graph registry, keyed by content fingerprint.
type registry struct {
	mu      sync.Mutex
	entries map[uint64]*entry
}

func newRegistry() *registry {
	return &registry{entries: make(map[uint64]*entry)}
}

// insert registers e (refs = 1, the registry's own reference) unless its
// fingerprint is already present, in which case the existing entry is
// returned with created=false and the caller discards e.
func (r *registry) insert(e *entry) (*entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.fp]; ok {
		return prev, false
	}
	e.refs = 1
	r.entries[e.fp] = e
	return e, true
}

// acquire takes a reference on the entry for fp, or returns nil when it is
// not registered. Every acquire must be paired with a release.
func (r *registry) acquire(fp uint64) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[fp]
	if e != nil {
		e.refs++
	}
	return e
}

// release drops one reference; the last reference releases the backing
// resources.
func (r *registry) release(e *entry) {
	r.mu.Lock()
	e.refs--
	destroy := e.refs == 0
	r.mu.Unlock()
	if destroy {
		e.destroy()
	}
}

// evict unregisters fp, dropping the registry's reference. Backing
// resources are released once the last in-flight request referencing the
// entry completes.
func (r *registry) evict(fp uint64) bool {
	r.mu.Lock()
	e := r.entries[fp]
	if e == nil {
		r.mu.Unlock()
		return false
	}
	delete(r.entries, fp)
	e.refs--
	destroy := e.refs == 0
	r.mu.Unlock()
	if destroy {
		e.destroy()
	}
	return true
}

// dropAll evicts every entry (Server.Close).
func (r *registry) dropAll() {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for fp, e := range r.entries {
		delete(r.entries, fp)
		e.refs--
		if e.refs == 0 {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.destroy()
	}
}

func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// snapshotEntries returns the registered entries in fingerprint order
// (holding a reference on none — callers read immutable fields only).
func (r *registry) snapshotEntries() []*entry {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	return entries
}

// graphInfo is the registry's public view of one graph.
type graphInfo struct {
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int64  `json:"m"`
	Weighted    bool   `json:"weighted"`
	Format      string `json:"format"`
	Builds      int    `json:"builds"`
}

type registerResponse struct {
	graphInfo
	Created bool `json:"created"`
}

type listResponse struct {
	Count  int         `json:"count"`
	Graphs []graphInfo `json:"graphs"`
}

func infoOf(e *entry) graphInfo {
	return graphInfo{
		Fingerprint: fpHex(e.fp),
		N:           e.g.NumVertices(),
		M:           e.g.NumEdges(),
		Weighted:    e.wg != nil,
		Format:      e.format,
		Builds:      e.buildCount(),
	}
}

// handleRegister spools the upload body to disk and opens it through
// snapshot.OpenAny, so every on-disk format the CLI accepts — .mpxsnap
// snapshots (memory-mapped straight from the spool file), legacy binary,
// DIMACS, edge lists — is accepted over the wire too. The graph is keyed
// by the content fingerprint OpenAny reports — the weighted one for
// weighted content, so two uploads with the same structure but different
// weights are different graphs; re-registering identical content is
// idempotent (created=false) and the duplicate upload is discarded.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	tmp, err := os.CreateTemp(s.spool, "upload-*.graph")
	if err != nil {
		writeError(w, http.StatusInternalServerError, kindInternal, "spooling upload: %v", err)
		return
	}
	path := tmp.Name()
	if _, err := io.Copy(tmp, http.MaxBytesReader(w, r.Body, s.maxUp)); err != nil {
		tmp.Close()
		os.Remove(path)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, kindTooLarge,
				"graph upload exceeds %d bytes", s.maxUp)
			return
		}
		writeError(w, http.StatusBadRequest, kindBadRequest, "reading upload body: %v", err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(path)
		writeError(w, http.StatusInternalServerError, kindInternal, "spooling upload: %v", err)
		return
	}
	o, err := snapshot.OpenAny(path)
	if err != nil {
		os.Remove(path)
		writeError(w, http.StatusBadRequest, kindBadRequest, "parsing uploaded graph: %v", err)
		return
	}
	e := &entry{
		fp:     o.Fingerprint,
		g:      o.Graph,
		wg:     o.Weighted,
		format: o.Format,
		path:   path,
		closer: o,
	}
	kept, created := s.reg.insert(e)
	if !created {
		o.Close()
		os.Remove(path)
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, marshalBody(registerResponse{graphInfo: infoOf(kept), Created: created}))
}

func (s *Server) handleList(w http.ResponseWriter) {
	entries := s.reg.snapshotEntries()
	resp := listResponse{Count: len(entries), Graphs: make([]graphInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Graphs = append(resp.Graphs, infoOf(e))
	}
	writeJSON(w, http.StatusOK, marshalBody(resp))
}

func (s *Server) handleInfo(w http.ResponseWriter, fp uint64) {
	e := s.reg.acquire(fp)
	if e == nil {
		writeError(w, http.StatusNotFound, kindNotFound, "graph %s is not registered", fpHex(fp))
		return
	}
	defer s.reg.release(e)
	writeJSON(w, http.StatusOK, marshalBody(infoOf(e)))
}

// handleEvict unregisters the graph; its retained builds and their
// response bodies go with the entry, including those of builds still in
// flight. In-flight requests holding the entry finish normally; the
// backing resources go away with the last reference.
func (s *Server) handleEvict(w http.ResponseWriter, fp uint64) {
	if !s.reg.evict(fp) {
		writeError(w, http.StatusNotFound, kindNotFound, "graph %s is not registered", fpHex(fp))
		return
	}
	writeJSON(w, http.StatusOK, marshalBody(struct {
		Evicted string `json:"evicted"`
	}{fpHex(fp)}))
}
