// Ontology lifecycle admin API: upload, inspect and hot-activate
// versioned ontology entries on a running server. The endpoints are
// enabled by ConfigureOntologies and live OFF the admission-gated
// path — rolling an ontology back must work while the server sheds
// solve traffic.
//
// Division of labor: the REGISTRY (osars.OntologyRegistry) is node-
// local catalog state — uploads land there on primaries and replicas
// alike. The STORE's active runtime is the replicated, durable truth:
// activation goes through the store's WAL, survives restart and ships
// to followers through the repl stream, which is why replicas refuse
// local activation (403) but accept uploads.

package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"osars"
	"osars/internal/store"
)

// OntologyInfo identifies one ontology runtime in API responses.
type OntologyInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// ReadyResponse is the 200 body of /readyz.
type ReadyResponse struct {
	Status   string       `json:"status"`
	Ontology OntologyInfo `json:"ontology"`
}

// ListOntologiesResponse is the GET /v1/ontologies reply.
type ListOntologiesResponse struct {
	Entries []osars.OntologyEntryInfo `json:"entries"`
	// Active is the serving runtime (the store's, on stateful nodes).
	Active OntologyInfo `json:"active"`
}

// UploadOntologyResponse is the PUT /v1/ontologies/{name} reply.
type UploadOntologyResponse struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Created is false when this exact (name, version) was already
	// registered (idempotent re-upload).
	Created bool `json:"created"`
}

// ActivateOntologyResponse is the POST /v1/ontologies/{name}/activate
// reply.
type ActivateOntologyResponse struct {
	Active OntologyInfo `json:"active"`
	// Swapped is false when the named version was already active.
	Swapped   bool    `json:"swapped"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ConfigureOntologies arms the ontology lifecycle admin API and
// per-request ontology selection with the given registry. Call before
// serving traffic.
func (s *Server) ConfigureOntologies(reg *osars.OntologyRegistry) { s.onto = reg }

// activeRuntime resolves the runtime requests serve under, in
// authority order: the store's active runtime (WAL-recovered,
// replication-advanced), then the registry's locally activated one,
// then the summarizer's config-time runtime.
func (s *Server) activeRuntime() *osars.OntologyRuntime {
	if !s.booting.Load() && s.store != nil {
		return s.store.ActiveRuntime()
	}
	if s.onto != nil {
		if rt := s.onto.Active(); rt != nil {
			return rt
		}
	}
	return s.sum.Runtime()
}

// requireRegistry answers 404 when ConfigureOntologies was never
// called.
func (s *Server) requireRegistry(w http.ResponseWriter) bool {
	if s.onto == nil {
		writeError(w, http.StatusNotFound, "ontology registry disabled (start with -ontology-dir or ConfigureOntologies)")
		return false
	}
	return true
}

func (s *Server) handleListOntologies(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) {
		return
	}
	rt := s.activeRuntime()
	writeJSON(w, http.StatusOK, ListOntologiesResponse{
		Entries: s.onto.List(),
		Active:  OntologyInfo{Name: rt.Name, Version: rt.Version},
	})
}

// handleGetOntology serves the entry's canonical encoding — the exact
// bytes whose hash is the version, suitable for re-upload to another
// node. {name} accepts "name" (latest) or "name@version".
func (s *Server) handleGetOntology(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) {
		return
	}
	ref := r.PathValue("name")
	e, _, ok := s.onto.Lookup(ref)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown ontology %q", ref))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Etag", `"`+e.Version+`"`)
	w.WriteHeader(http.StatusOK)
	w.Write(e.Payload())
}

// handlePutOntology uploads one osars-ontology/v1 entry file. The body
// is validated end to end (schema, DAG, lexicon polarities) before it
// can be registered, and the path name must match the entry's own name
// so a registry can never hold an entry under a name its payload
// disputes. Uploads are accepted on replicas too — the registry is
// node-local; only ACTIVATION is primary-only.
func (s *Server) handlePutOntology(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) {
		return
	}
	// DecodeOntologyEntry keeps no part of the pooled body: its strings
	// and json.RawMessage are copies.
	var e *osars.OntologyEntry
	if !s.readBody(w, r, func(b []byte) (err error) {
		e, err = osars.DecodeOntologyEntry(b)
		return err
	}) {
		return
	}
	if name := r.PathValue("name"); e.Name != name {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("entry is named %q but was uploaded to %q", e.Name, name))
		return
	}
	created := true
	if _, _, known := s.onto.Lookup(e.Name + "@" + e.Version); known {
		created = false
	}
	if _, err := s.onto.Register(e); err != nil {
		// Registered in memory but not persisted — surface it, the
		// upload will not survive a restart.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, UploadOntologyResponse{Name: e.Name, Version: e.Version, Created: created})
}

// handleActivateOntology hot-swaps the store's active runtime to the
// named entry (latest version, or ?version= pins one). The swap is
// atomic: in-flight requests finish on the runtime they pinned, new
// requests see the new one, stored items re-annotate lazily. On a
// durable store the activation is WAL-logged before it applies, so it
// survives restart and replicates.
func (s *Server) handleActivateOntology(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) || !s.requireStore(w) || !s.requireWritable(w) {
		return
	}
	ref := r.PathValue("name")
	if v := r.URL.Query().Get("version"); v != "" {
		ref += "@" + v
	}
	_, rt, ok := s.onto.Lookup(ref)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown ontology %q", ref))
		return
	}
	cur := s.store.ActiveRuntime()
	swapped := cur.Name != rt.Name || cur.Version != rt.Version
	start := time.Now()
	if err := s.store.ActivateOntology(rt); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrReadOnly) {
			status = http.StatusForbidden
		}
		writeError(w, status, err.Error())
		return
	}
	elapsed := time.Since(start)
	s.onto.SetActive(rt)
	if swapped {
		s.onto.RecordActivation(rt, elapsed)
	}
	writeJSON(w, http.StatusOK, ActivateOntologyResponse{
		Active:    OntologyInfo{Name: rt.Name, Version: rt.Version},
		Swapped:   swapped,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	})
}
