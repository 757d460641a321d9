// Package server exposes the summarizer as a small JSON-over-HTTP
// service, the deployment shape a review site would embed the library
// in. It is stdlib-only (net/http) and offers two modes side by side:
//
//   - a stateless endpoint, where every request carries the item's raw
//     reviews and annotation + selection run per request; and
//   - a stateful item API backed by osars.Store, where reviews are
//     ingested incrementally (only new reviews are annotated) and
//     summary reads are answered from a generation-aware LRU cache,
//     deduplicating concurrent identical solves via singleflight.
//
// Endpoints:
//
//	GET    /healthz                  → 200 "ok" (liveness: the process serves)
//	GET    /readyz                   → 200 {"status":"ready","ontology":{...}} | 503
//	GET    /v1/ontology              → the ACTIVE ontology as JSON
//	POST   /v1/summarize             → SummarizeRequest → SummarizeResponse (stateless)
//	PUT    /v1/items/{id}/reviews    → AppendReviewsRequest → item stats (append-only ingest)
//	GET    /v1/items/{id}            → item stats
//	GET    /v1/items/{id}/summary    → ?k=&granularity=&method= → ItemSummaryResponse
//	GET    /v1/items                 → ListItemsResponse (all items + store counters)
//	DELETE /v1/items/{id}            → {"deleted": true}
//	GET    /v1/stats                 → StatsResponse (store + admission counters)
//	GET    /metrics                  → Prometheus text exposition (404 until ConfigureObservability)
//
// Ontology lifecycle admin API (404 until ConfigureOntologies):
//
//	GET    /v1/ontologies                  → ListOntologiesResponse (registry listing + active)
//	PUT    /v1/ontologies/{name}           → upload an osars-ontology/v1 entry file
//	GET    /v1/ontologies/{name}           → the entry's canonical JSON ({name} may be name@version)
//	POST   /v1/ontologies/{name}/activate  → hot-swap the store's active runtime (?version= pins one)
//
// The store behind the item API may be sharded (osars.StoreOptions
// .Shards > 1): routing is invisible here — the Store interface hides
// it — but GET /v1/stats exposes the per-shard breakdown. A one-shard
// store's stats have no breakdown.
//
// Overload behavior: with admission control configured
// (ConfigureAdmission), solve-class endpoints (POST /v1/summarize,
// GET /v1/items/{id}/summary) and cheap-read endpoints are admitted
// through separate bounded concurrency limits with a bounded wait
// queue; excess load is shed fast with 429 + Retry-After instead of
// piling up goroutines until everything is slow.
//
// Replication roles: a primary mounts the WAL stream endpoints under
// /v1/repl/ (HandleRepl); a replica additionally rejects local writes
// (SetPrimary makes PUT/DELETE answer 403 naming the primary) and
// gates /readyz on its replication lag (ConfigureReadiness). Both
// roles can boot asynchronously — BeginBoot/FinishBoot let the
// listener accept traffic (503 on stateful endpoints, /readyz not
// ready) while the store still recovers its WAL.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"osars"
)

// SummarizeRequest is the POST /v1/summarize body.
type SummarizeRequest struct {
	ItemID   string      `json:"item_id"`
	ItemName string      `json:"item_name"`
	Reviews  []RawReview `json:"reviews"`
	// K is the summary size (required, ≥ 1).
	K int `json:"k"`
	// Granularity: "pairs", "sentences" (default) or "reviews".
	Granularity string `json:"granularity"`
	// Method: "greedy" (default), "rr", "ilp" or "local-search".
	Method string `json:"method"`
	// Ontology selects the domain to annotate and solve under: a
	// registry reference, "name" (latest) or "name@version". Empty uses
	// the active runtime. Requires ConfigureOntologies.
	Ontology string `json:"ontology,omitempty"`
}

// RawReview is one review in a request.
type RawReview struct {
	ID     string  `json:"id"`
	Text   string  `json:"text"`
	Rating float64 `json:"rating"`
}

// SummarizeResponse is the POST /v1/summarize reply. The server
// writes it, and ItemSummaryResponse, without reflection (encode.go);
// the types document the wire schema that clients decode.
type SummarizeResponse struct {
	ItemID      string     `json:"item_id"`
	Granularity string     `json:"granularity"`
	Method      string     `json:"method"`
	Cost        float64    `json:"cost"`
	NumPairs    int        `json:"num_pairs"`
	Pairs       []PairJSON `json:"pairs,omitempty"`
	Sentences   []string   `json:"sentences,omitempty"`
	ReviewIDs   []string   `json:"review_ids,omitempty"`
	// Ontology and OntologyVersion identify the runtime the summary was
	// annotated and solved under.
	Ontology        string  `json:"ontology,omitempty"`
	OntologyVersion string  `json:"ontology_version,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// PairJSON renders a concept-sentiment pair with its concept name.
type PairJSON struct {
	Concept   string  `json:"concept"`
	Sentiment float64 `json:"sentiment"`
}

// AppendReviewsRequest is the PUT /v1/items/{id}/reviews body.
// Appending zero reviews creates (or renames) the item.
type AppendReviewsRequest struct {
	ItemName string      `json:"item_name"`
	Reviews  []RawReview `json:"reviews"`
}

// ItemSummaryResponse is the GET /v1/items/{id}/summary reply: the
// stateless response shape plus the corpus generation the summary was
// solved at and whether it was served without a new solve.
type ItemSummaryResponse struct {
	SummarizeResponse
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
}

// ListItemsResponse is the GET /v1/items reply.
type ListItemsResponse struct {
	Items []osars.ItemStats `json:"items"`
	Stats osars.StoreStats  `json:"stats"`
}

// StatsResponse is the GET /v1/stats reply: store counters (including
// the per-shard breakdown for sharded stores) plus the admission-
// control counters, so load shedding is observable without a
// debugger. Store is omitted when the server runs stateless.
// PersistError surfaces the store's background fsync or snapshot
// failure (PersistErr) — a store that can no longer persist looks
// healthy on every read path, so it must be visible here.
type StatsResponse struct {
	Store        *osars.StoreStats `json:"store,omitempty"`
	Admission    AdmissionStats    `json:"admission"`
	PersistError string            `json:"persist_error,omitempty"`
	// Ontology is the serving runtime's identity (the store's active
	// runtime, or the summarizer's in stateless mode).
	Ontology *OntologyInfo `json:"ontology,omitempty"`
}

// errorResponse is every non-2xx body. Primary is set on the 403 a
// read-only replica returns for writes: it names the node that does
// accept them.
type errorResponse struct {
	Error   string `json:"error"`
	Primary string `json:"primary,omitempty"`
}

// Server handles the HTTP API around one Summarizer and (optionally)
// one Store. Create with New or NewWithStore; it implements
// http.Handler.
type Server struct {
	sum   *osars.Summarizer
	store osars.Store
	mux   *http.ServeMux
	// onto, when non-nil (ConfigureOntologies), enables the ontology
	// lifecycle admin API and per-request ontology selection.
	onto *osars.OntologyRegistry
	// admission, when non-nil, gates the solve and read endpoint
	// classes (see admission.go). Configure before serving traffic.
	admission *admission
	// booting is true between BeginBoot and FinishBoot: the stateful
	// endpoints answer 503 and /readyz is not ready. FinishBoot
	// publishes s.store before clearing it, so handlers that observe
	// booting == false see the fully constructed store.
	booting atomic.Bool
	// primary, when set (SetPrimary), marks this node a read-only
	// replica: PUT/DELETE answer 403 naming this URL. Set before
	// serving traffic.
	primary string
	// readyProbe, when set (ConfigureReadiness), adds a condition to
	// /readyz beyond boot completion (e.g. replication lag). Set before
	// serving traffic.
	readyProbe func() error
	// obsM, when non-nil (ConfigureObservability), arms the per-route
	// instruments, GET /metrics and the slow-request log. Set before
	// serving traffic.
	obsM *serverMetrics
	// routes collects every instrumented route's placeholder metrics,
	// armed by ConfigureObservability (routes register first).
	routes []*routeMetrics
	// MaxReviews rejects oversized requests (default 10000).
	MaxReviews int
	// MaxBodyBytes bounds request bodies (default 64 MiB). Larger
	// bodies get 413.
	MaxBodyBytes int64
}

// New builds the handler with a default Store (default cache budgets).
func New(s *osars.Summarizer) *Server {
	return NewWithStore(s, s.NewStore(osars.StoreOptions{}))
}

// NewWithStore builds the handler around an explicit Store (which may
// be sharded). A nil store disables the stateful /v1/items endpoints
// (they answer 404).
func NewWithStore(s *osars.Summarizer, st osars.Store) *Server {
	srv := &Server{
		sum:          s,
		store:        st,
		mux:          http.NewServeMux(),
		MaxReviews:   10000,
		MaxBodyBytes: 64 << 20,
	}
	srv.handle("/healthz", srv.handleHealth)
	srv.handle("/readyz", srv.handleReady)
	srv.handle("/v1/ontology", srv.handleOntology)
	srv.handle("/v1/summarize", srv.admit(solveClass, srv.handleSummarize))
	srv.handle("PUT /v1/items/{id}/reviews", srv.handleAppendReviews)
	srv.handle("GET /v1/items/{id}/summary", srv.admit(solveClass, srv.handleItemSummary))
	srv.handle("GET /v1/items/{id}", srv.admit(readClass, srv.handleItemStats))
	srv.handle("GET /v1/items", srv.admit(readClass, srv.handleListItems))
	srv.handle("DELETE /v1/items/{id}", srv.handleDeleteItem)
	srv.handle("GET /v1/stats", srv.handleStats)
	// The ontology admin API is instrumented (handle) but deliberately
	// NOT admission-gated (no admit wrapper): an operator must be able
	// to upload or roll back an ontology exactly when the server is
	// saturated and shedding solve traffic.
	srv.handle("GET /v1/ontologies", srv.handleListOntologies)
	srv.handle("GET /v1/ontologies/{name}", srv.handleGetOntology)
	srv.handle("PUT /v1/ontologies/{name}", srv.handlePutOntology)
	srv.handle("POST /v1/ontologies/{name}/activate", srv.handleActivateOntology)
	// Deliberately NOT wrapped in handle(): scraping must not show up
	// in the request metrics, and must never be admission- or boot-
	// gated (handleMetrics answers 404 until ConfigureObservability).
	srv.mux.HandleFunc("GET /metrics", srv.handleMetrics)
	return srv
}

// ConfigureAdmission arms admission control. Call once, before the
// server starts handling traffic; a zero config (all limits ≤ 0)
// leaves every class unlimited. /healthz, /v1/stats and the ingest
// endpoints are never gated: health checks and observability must
// work exactly when the server is saturated, and ingestion backs up
// on the store's own WAL ordering instead.
func (s *Server) ConfigureAdmission(cfg AdmissionConfig) {
	s.admission = newAdmission(cfg)
	if m := s.obsM; m != nil {
		s.admission.armObs(m.reg)
	}
}

// Store returns the backing store (nil in stateless-only mode or
// while booting).
func (s *Server) Store() osars.Store {
	if s.booting.Load() {
		return nil
	}
	return s.store
}

// BeginBoot puts the server in boot mode: the stateful endpoints
// answer 503 "recovering" and /readyz is not ready until FinishBoot.
// Call before the listener starts, so a slow WAL recovery does not
// keep /healthz (and the whole port) from answering.
func (s *Server) BeginBoot() { s.booting.Store(true) }

// FinishBoot installs the recovered store and leaves boot mode. Safe
// to call while requests are in flight: the store write is published
// by the atomic flag clear.
func (s *Server) FinishBoot(st osars.Store) {
	s.store = st
	s.booting.Store(false)
}

// SetPrimary marks this node a read-only replica: the write endpoints
// (PUT /v1/items/{id}/reviews, DELETE /v1/items/{id}) answer 403 with
// a JSON body naming primaryURL. Call before serving traffic.
func (s *Server) SetPrimary(primaryURL string) { s.primary = primaryURL }

// ConfigureReadiness adds a probe to /readyz beyond boot completion:
// non-nil errors turn into 503 with the error text (e.g. "replication
// lag 1200 seqs exceeds 100"). Call before serving traffic.
func (s *Server) ConfigureReadiness(probe func() error) { s.readyProbe = probe }

// HandleRepl mounts h on the /v1/repl/ subtree (the primary's stream/
// snapshot/status endpoints, or the replica's status endpoint). Call
// before serving traffic. Replication endpoints are never admission-
// gated: shedding the stream under load would make replicas fall
// further behind exactly when read scale-out matters most.
func (s *Server) HandleRepl(h http.Handler) { s.mux.Handle("/v1/repl/", h) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is the load-balancer signal, distinct from /healthz:
// liveness says "don't restart me", readiness says "route traffic to
// me". A node recovering its WAL at boot, or a replica lagging beyond
// its configured bound, is alive but should receive no reads yet.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.booting.Load() {
		writeError(w, http.StatusServiceUnavailable, "store recovering (boot in progress)")
		return
	}
	if s.readyProbe != nil {
		if err := s.readyProbe(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	rt := s.activeRuntime()
	writeJSON(w, http.StatusOK, ReadyResponse{
		Status:   "ready",
		Ontology: OntologyInfo{Name: rt.Name, Version: rt.Version},
	})
}

func (s *Server) handleOntology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.activeRuntime().Metric.Ont)
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SummarizeRequest
	if !s.readBody(w, r, req.decode) {
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "k must be ≥ 1")
		return
	}
	if len(req.Reviews) == 0 {
		writeError(w, http.StatusBadRequest, "reviews must be non-empty")
		return
	}
	if len(req.Reviews) > s.MaxReviews {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("too many reviews (%d > %d)", len(req.Reviews), s.MaxReviews))
		return
	}
	gran, err := osars.ParseGranularity(req.Granularity)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	method, err := osars.ParseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Pin the request's runtime once: the active one, or — for
	// multi-domain serving — the registry entry the request names.
	rt := s.activeRuntime()
	if req.Ontology != "" {
		if s.onto == nil {
			writeError(w, http.StatusBadRequest, "no ontology registry configured (per-request ontology selection is off)")
			return
		}
		_, reqRT, ok := s.onto.Lookup(req.Ontology)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown ontology %q", req.Ontology))
			return
		}
		rt = reqRT
	}

	start := time.Now()
	item := s.sum.AnnotateItemWith(rt, req.ItemID, req.ItemName, toReviews(req.Reviews))
	sum, err := s.sum.SummarizeWith(rt, item, req.K, gran, method)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeSummary(w, sum, sinceMS(start), false, false)
}

// requireStore answers 503 while boot recovery runs and 404 when the
// server was built without a store.
func (s *Server) requireStore(w http.ResponseWriter) bool {
	if s.booting.Load() {
		writeError(w, http.StatusServiceUnavailable, "store recovering (boot in progress)")
		return false
	}
	if s.store == nil {
		writeError(w, http.StatusNotFound, "stateful item API disabled (server runs stateless)")
		return false
	}
	return true
}

// requireWritable answers 403 on the write endpoints of a read-only
// replica, naming the primary that does accept writes.
func (s *Server) requireWritable(w http.ResponseWriter) bool {
	if s.primary != "" {
		writeJSON(w, http.StatusForbidden, errorResponse{
			Error:   "this node is a read-only replica; send writes to the primary",
			Primary: s.primary,
		})
		return false
	}
	return true
}

func (s *Server) handleAppendReviews(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) || !s.requireWritable(w) {
		return
	}
	var req AppendReviewsRequest
	if !s.readBody(w, r, req.decode) {
		return
	}
	if len(req.Reviews) > s.MaxReviews {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("too many reviews (%d > %d)", len(req.Reviews), s.MaxReviews))
		return
	}
	stats, err := s.store.AppendReviews(r.PathValue("id"), req.ItemName, toReviews(req.Reviews))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleItemSummary(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	q := r.URL.RawQuery
	k, err := strconv.Atoi(queryGet(q, "k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, "query parameter k must be an integer ≥ 1")
		return
	}
	gran, err := osars.ParseGranularity(queryGet(q, "granularity"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	method, err := osars.ParseMethod(queryGet(q, "method"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	start := time.Now()
	sum, cached, err := s.store.Summary(r.PathValue("id"), k, gran, method)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, osars.ErrItemNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	writeSummary(w, sum, sinceMS(start), true, cached)
}

func (s *Server) handleItemStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	stats, ok := s.store.ItemStats(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, osars.ErrItemNotFound.Error())
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleListItems(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	writeJSON(w, http.StatusOK, ListItemsResponse{
		Items: s.store.List(),
		Stats: s.store.Stats(),
	})
}

func (s *Server) handleDeleteItem(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) || !s.requireWritable(w) {
		return
	}
	id := r.PathValue("id")
	deleted, err := s.store.Delete(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !deleted {
		writeError(w, http.StatusNotFound, osars.ErrItemNotFound.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Admission: s.admission.stats()}
	rt := s.activeRuntime()
	resp.Ontology = &OntologyInfo{Name: rt.Name, Version: rt.Version}
	if store := s.Store(); store != nil {
		st := store.Stats()
		resp.Store = &st
		if err := store.PersistErr(); err != nil {
			resp.PersistError = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func toReviews(in []RawReview) []osars.Review {
	out := make([]osars.Review, len(in))
	for i, rr := range in {
		out[i] = osars.Review{ID: rr.ID, Text: rr.Text, Rating: rr.Rating}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
