// Primary-side HTTP surface of replication: the streaming WAL
// endpoint, the snapshot bootstrap endpoint and the status endpoint.
// Mounted under /v1/repl/ by the serving layer.
//
//	GET /v1/repl/status                                  → StatusResponse
//	GET /v1/repl/stream?shard=N&after=S[&max_bytes&wait] → raw WAL frames (chunked)
//	GET /v1/repl/snapshot?shard=N                        → raw snapshot container
//
// Stream semantics: the response body is a back-to-back sequence of
// WAL frames (the exact on-disk framing) for records with seq > after,
// flushed as they are read. When the tail catches up with the log the
// handler blocks on the WAL's append notification and keeps streaming
// new records as they land; the response ends cleanly after `wait` of
// idleness or once ~max_bytes have been sent, and the follower simply
// reconnects with its advanced cursor. A follower whose cursor was
// compacted past gets 410 Gone plus the snapshot seq to bootstrap
// from; a follower ahead of the primary (data loss on the primary)
// gets 409 so the operator hears about it instead of a silent stall.

package repl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"osars/internal/store"
	"osars/internal/wal"
)

// Stream protocol headers.
const (
	// HeaderNextSeq carries the primary's next append sequence for the
	// shard at response time — the follower derives its lag from it.
	HeaderNextSeq = "X-Osars-Repl-Next-Seq"
	// HeaderPendingBytes carries the on-disk bytes the follower still
	// has to catch up on at response time.
	HeaderPendingBytes = "X-Osars-Repl-Pending-Bytes"
	// HeaderSnapshotSeq carries the sequence a shipped snapshot covers.
	HeaderSnapshotSeq = "X-Osars-Repl-Snapshot-Seq"
)

// Defaults for the stream handler knobs.
const (
	// DefaultMaxStreamBytes caps one stream response; the follower
	// reconnects afterwards (also refreshing its lag measurements).
	DefaultMaxStreamBytes = 32 << 20
	// DefaultStreamWait is how long a caught-up stream stays open
	// waiting for new appends before ending the response.
	DefaultStreamWait = 20 * time.Second
	// maxStreamWait bounds the client-requested wait.
	maxStreamWait = 60 * time.Second
	// streamBatchBytes is the per-read batch the handler pulls from the
	// tail before flushing.
	streamBatchBytes = 1 << 20
)

// StatusResponse is the GET /v1/repl/status reply of a primary.
type StatusResponse struct {
	Role     string        `json:"role"`
	Shards   int           `json:"shards"`
	HashSeed uint64        `json:"hash_seed,omitempty"`
	PerShard []ShardStatus `json:"per_shard"`
}

// ShardStatus is one shard's position in a primary StatusResponse.
type ShardStatus struct {
	Shard int `json:"shard"`
	store.ReplStatus
}

// errorBody is every non-2xx JSON reply of the repl endpoints.
type errorBody struct {
	Error string `json:"error"`
	// OldestSeq and SnapshotSeq accompany 410 Gone: the retention
	// horizon and the snapshot the follower must bootstrap from.
	OldestSeq   uint64 `json:"oldest_seq,omitempty"`
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
}

// PrimaryHandler serves the replication endpoints of a primary. It is
// constructed detached (so it can be mounted before the store finishes
// boot recovery) and armed with Attach; until then every endpoint
// answers 503.
type PrimaryHandler struct {
	src atomic.Pointer[Source]

	// MaxStreamBytes caps one stream response
	// (default DefaultMaxStreamBytes).
	MaxStreamBytes int
	// StreamWait is the default idle wait of a caught-up stream
	// (default DefaultStreamWait; the client can lower it per request).
	StreamWait time.Duration
}

// NewPrimaryHandler returns a handler with no source attached.
func NewPrimaryHandler() *PrimaryHandler { return &PrimaryHandler{} }

// Attach arms the handler with the primary's replication source. Safe
// to call while requests are in flight (boot completes under traffic).
func (h *PrimaryHandler) Attach(src *Source) { h.src.Store(src) }

// ServeHTTP implements http.Handler for the /v1/repl/ subtree.
func (h *PrimaryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "use GET"})
		return
	}
	src := h.src.Load()
	if src == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replication source not ready (boot recovery in progress)"})
		return
	}
	switch r.URL.Path {
	case "/v1/repl/status":
		h.handleStatus(w, src)
	case "/v1/repl/stream":
		h.handleStream(w, r, src)
	case "/v1/repl/snapshot":
		h.handleSnapshot(w, r, src)
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown replication endpoint"})
	}
}

func (h *PrimaryHandler) handleStatus(w http.ResponseWriter, src *Source) {
	resp := StatusResponse{Role: "primary", Shards: src.NumShards(), HashSeed: src.HashSeed()}
	for i := 0; i < src.NumShards(); i++ {
		st, err := src.Shard(i).ReplStatus()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("shard %d: %v", i, err)})
			return
		}
		resp.PerShard = append(resp.PerShard, ShardStatus{Shard: i, ReplStatus: st})
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardParam parses and bounds the ?shard= parameter.
func shardParam(r *http.Request, n int) (int, error) {
	raw := r.URL.Query().Get("shard")
	if raw == "" {
		raw = "0"
	}
	i, err := strconv.Atoi(raw)
	if err != nil || i < 0 {
		return 0, fmt.Errorf("bad shard %q", raw)
	}
	if i >= n {
		return 0, fmt.Errorf("shard %d out of range (primary has %d)", i, n)
	}
	return i, nil
}

func (h *PrimaryHandler) handleStream(w http.ResponseWriter, r *http.Request, src *Source) {
	q := r.URL.Query()
	shardIdx, err := shardParam(r, src.NumShards())
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil && q.Get("after") != "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad after sequence"})
		return
	}
	maxBytes := h.MaxStreamBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxStreamBytes
	}
	if raw := q.Get("max_bytes"); raw != "" {
		if v, err := strconv.Atoi(raw); err == nil && v > 0 && v < maxBytes {
			maxBytes = v
		}
	}
	wait := h.StreamWait
	if wait <= 0 {
		wait = DefaultStreamWait
	}
	if raw := q.Get("wait"); raw != "" {
		if d, err := time.ParseDuration(raw); err == nil && d >= 0 && d < maxStreamWait {
			wait = d
		}
	}

	st := src.Shard(shardIdx)
	status, err := st.ReplStatus()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	if after >= status.NextSeq {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf(
			"replica is ahead of the primary (after=%d, primary next seq %d): the primary lost history or the replica followed a different deployment",
			after, status.NextSeq)})
		return
	}
	tail, err := st.ReplTail(after)
	if err == wal.ErrCompacted {
		writeJSON(w, http.StatusGone, errorBody{
			Error:       fmt.Sprintf("records after %d were compacted (oldest retained %d); bootstrap from the snapshot", after, status.OldestSeq),
			OldestSeq:   status.OldestSeq,
			SnapshotSeq: status.SnapshotSeq,
		})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	defer tail.Close()

	pendingSeqs, pendingBytes := tail.Pending()
	_ = pendingSeqs
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderNextSeq, strconv.FormatUint(status.NextSeq, 10))
	w.Header().Set(HeaderPendingBytes, strconv.FormatInt(pendingBytes, 10))
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	sent := 0
	idleDeadline := time.Now().Add(wait)
	for sent < maxBytes {
		batch := streamBatchBytes
		if rem := maxBytes - sent; rem < batch {
			batch = rem
		}
		frames, n, _, err := tail.Next(batch)
		if err != nil {
			// Compacted mid-stream or read failure: end the response;
			// the follower's reconnect sees the authoritative status.
			return
		}
		if n > 0 {
			// Keep long streams alive past the server's write timeout:
			// the deadline is per batch, not per response.
			_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := w.Write(frames); err != nil {
				return
			}
			_ = rc.Flush()
			sent += len(frames)
			idleDeadline = time.Now().Add(wait)
			continue
		}
		// Caught up: block until the next append, the idle deadline or
		// the client going away.
		notify, err := st.ReplNotify()
		if err != nil {
			return
		}
		idle := time.NewTimer(time.Until(idleDeadline))
		select {
		case <-notify:
			idle.Stop()
		case <-idle.C:
			return
		case <-r.Context().Done():
			idle.Stop()
			return
		}
	}
}

func (h *PrimaryHandler) handleSnapshot(w http.ResponseWriter, r *http.Request, src *Source) {
	shardIdx, err := shardParam(r, src.NumShards())
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	raw, seq, ok, err := src.Shard(shardIdx).ReplSnapshotRaw()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no snapshot available yet"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
