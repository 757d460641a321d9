// Replica-side replication: the Follower runs one catch-up loop per
// shard, pulling WAL frames from the primary's stream endpoint and
// applying them through the store's replicated-apply path. Each loop
// implements the catch-up state machine from the package comment
// (tailing ↔ bootstrapping) with jittered exponential backoff around
// connection failures, and publishes per-shard lag for /v1/repl/status
// and the readiness probe.

package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"osars/internal/obs"
	"osars/internal/wal"
)

// Follower shard states, as reported in ShardLag.State.
const (
	// StateConnecting: no successful stream yet (or reconnecting after
	// an error).
	StateConnecting = "connecting"
	// StateTailing: streaming frames (or caught up and long-polling).
	StateTailing = "tailing"
	// StateBootstrapping: installing a snapshot after falling behind
	// the primary's compaction horizon.
	StateBootstrapping = "bootstrapping"
)

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL, e.g. "http://primary:8080".
	PrimaryURL string
	// Target is the replica store the shipped records apply to.
	Target *Target
	// Client is the HTTP client for all primary requests; nil uses a
	// default with sane stream timeouts.
	Client *http.Client
	// MaxStreamBytes is the per-request max_bytes hint (0: primary
	// default).
	MaxStreamBytes int
	// Wait is the long-poll idle wait requested per stream
	// (0: primary default).
	Wait time.Duration
	// Logf, when non-nil, receives follower lifecycle messages.
	Logf func(format string, args ...any)
	// Obs, when non-nil, registers per-shard replication instruments
	// (applied-seq, lag and state gauges, shipped frames/bytes and
	// backoff counters) in this registry.
	Obs *obs.Registry
}

// shardReplMetrics is one shard's interned replication instruments
// (all nil when FollowerConfig.Obs is nil — every call no-ops).
type shardReplMetrics struct {
	applied  *obs.Gauge
	lag      *obs.Gauge
	state    *obs.Gauge
	frames   *obs.Counter
	bytes    *obs.Counter
	backoffs *obs.Counter
}

// stateCode maps follower states to the osars_repl_state gauge value.
func stateCode(state string) int64 {
	switch state {
	case StateTailing:
		return 1
	case StateBootstrapping:
		return 2
	default: // StateConnecting
		return 0
	}
}

// newReplMetrics interns every shard's instruments up front so the
// apply loop never touches the registry.
func newReplMetrics(reg *obs.Registry, shards int) []shardReplMetrics {
	ms := make([]shardReplMetrics, shards)
	if reg == nil {
		return ms
	}
	applied := reg.GaugeVec("osars_repl_applied_seq",
		"Newest primary WAL sequence applied locally, per shard.", "shard")
	lag := reg.GaugeVec("osars_repl_lag_seqs",
		"Sequences behind the primary at last contact (-1 before the first successful contact).", "shard")
	state := reg.GaugeVec("osars_repl_state",
		"Catch-up state: 0=connecting, 1=tailing, 2=bootstrapping.", "shard")
	frames := reg.CounterVec("osars_repl_frames_applied_total",
		"WAL frames applied since the follower started (a bootstrap snapshot counts as one).", "shard")
	bytes := reg.CounterVec("osars_repl_shipped_bytes_total",
		"Bytes shipped from the primary and applied locally.", "shard")
	backoffs := reg.CounterVec("osars_repl_backoffs_total",
		"Reconnect backoffs (stream or handshake failures).", "shard")
	for i := range ms {
		sh := strconv.Itoa(i)
		ms[i] = shardReplMetrics{
			applied:  applied.With(sh),
			lag:      lag.With(sh),
			state:    state.With(sh),
			frames:   frames.With(sh),
			bytes:    bytes.With(sh),
			backoffs: backoffs.With(sh),
		}
	}
	return ms
}

// ShardLag is one shard's replication position as seen by the
// follower, reported by Follower.Lag and /v1/repl/status on a replica.
type ShardLag struct {
	Shard int    `json:"shard"`
	State string `json:"state"`
	// AppliedSeq is the newest sequence applied locally; PrimaryNextSeq
	// is the primary's next append position the last time this shard
	// heard from it.
	AppliedSeq     uint64 `json:"applied_seq"`
	PrimaryNextSeq uint64 `json:"primary_next_seq"`
	// LagSeqs = PrimaryNextSeq-1 - AppliedSeq at the last contact
	// (math.MaxUint64 before the first successful contact).
	LagSeqs  uint64 `json:"lag_seqs"`
	LagBytes int64  `json:"lag_bytes"`
	// FramesApplied and BytesApplied count everything shipped since the
	// follower started (bootstrap snapshots count as one "frame").
	FramesApplied uint64 `json:"frames_applied"`
	BytesApplied  int64  `json:"bytes_applied"`
	// LastError is the most recent per-shard failure, cleared by the
	// next successful stream.
	LastError string `json:"last_error,omitempty"`
}

// Follower drives the per-shard catch-up loops. Create with
// StartFollower; Stop to shut down.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client
	base   string

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	lags []ShardLag

	// metrics has one entry per shard (zero-valued, hence no-op, when
	// no registry was configured). Gauges are synced inside update so
	// every lag mutation is reflected; counters advance by the delta
	// the mutation produced.
	metrics []shardReplMetrics
}

// StartFollower validates the primary handshake asynchronously and
// starts one catch-up goroutine per shard. It returns immediately: a
// primary that is down at start is retried with backoff like any other
// failure, so replica boot order does not matter.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Target == nil || cfg.Target.NumShards() == 0 {
		return nil, fmt.Errorf("repl: follower needs a replica target")
	}
	base := strings.TrimRight(cfg.PrimaryURL, "/")
	if _, err := url.Parse(base); err != nil || base == "" {
		return nil, fmt.Errorf("repl: bad primary URL %q", cfg.PrimaryURL)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{} // stream responses are long-lived: no global timeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg:     cfg,
		client:  client,
		base:    base,
		cancel:  cancel,
		lags:    make([]ShardLag, cfg.Target.NumShards()),
		metrics: newReplMetrics(cfg.Obs, cfg.Target.NumShards()),
	}
	for i := range f.lags {
		f.lags[i] = ShardLag{Shard: i, State: StateConnecting, LagSeqs: math.MaxUint64}
		f.metrics[i].lag.Set(-1)
	}
	for i := 0; i < cfg.Target.NumShards(); i++ {
		f.wg.Add(1)
		go f.runShard(ctx, i)
	}
	return f, nil
}

// Stop terminates every shard loop and waits for them to exit.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

// Lag returns the current per-shard replication positions.
func (f *Follower) Lag() []ShardLag {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ShardLag, len(f.lags))
	copy(out, f.lags)
	return out
}

// MaxLagSeqs returns the worst per-shard sequence lag — the readiness
// signal. It is math.MaxUint64 until every shard has heard from the
// primary at least once, so a replica is never "ready" on stale
// information.
func (f *Follower) MaxLagSeqs() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var worst uint64
	for i := range f.lags {
		if f.lags[i].LagSeqs > worst {
			worst = f.lags[i].LagSeqs
		}
	}
	return worst
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// update mutates one shard's lag under the lock and mirrors the
// result into that shard's gauges/counters, so the metrics can never
// drift from what /v1/repl/status reports.
func (f *Follower) update(shard int, fn func(*ShardLag)) {
	f.mu.Lock()
	l := &f.lags[shard]
	prevFrames, prevBytes := l.FramesApplied, l.BytesApplied
	fn(l)
	snap := *l
	f.mu.Unlock()

	m := &f.metrics[shard]
	m.applied.Set(int64(snap.AppliedSeq))
	m.state.Set(stateCode(snap.State))
	if snap.LagSeqs == math.MaxUint64 {
		m.lag.Set(-1) // no contact yet: lag unknown, not zero
	} else {
		m.lag.Set(int64(snap.LagSeqs))
	}
	m.frames.Add(snap.FramesApplied - prevFrames)
	if d := snap.BytesApplied - prevBytes; d > 0 {
		m.bytes.Add(uint64(d))
	}
}

// Backoff bounds for reconnects.
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// runShard is the per-shard catch-up loop.
func (f *Follower) runShard(ctx context.Context, shard int) {
	defer f.wg.Done()
	rng := rand.New(rand.NewSource(int64(shard)*2654435761 + 1))
	backoff := backoffMin
	handshook := false
	for ctx.Err() == nil {
		if !handshook {
			if err := f.handshake(ctx); err != nil {
				f.fail(ctx, shard, &backoff, rng, fmt.Errorf("handshake: %w", err))
				continue
			}
			handshook = true
		}
		progressed, err := f.streamOnce(ctx, shard)
		if err != nil {
			if gone, ok := err.(*goneError); ok {
				f.update(shard, func(l *ShardLag) { l.State = StateBootstrapping })
				if berr := f.bootstrap(ctx, shard, gone); berr != nil {
					f.fail(ctx, shard, &backoff, rng, fmt.Errorf("bootstrap: %w", berr))
				} else {
					backoff = backoffMin
				}
				continue
			}
			// A connection cut after real progress is routine (primary
			// restart, balancer idle timeout): reconnect immediately once.
			if progressed {
				backoff = backoffMin
			}
			f.fail(ctx, shard, &backoff, rng, err)
			continue
		}
		backoff = backoffMin
	}
}

// fail records err and sleeps the jittered backoff (context-aware).
func (f *Follower) fail(ctx context.Context, shard int, backoff *time.Duration, rng *rand.Rand, err error) {
	if ctx.Err() != nil {
		return
	}
	f.update(shard, func(l *ShardLag) {
		l.State = StateConnecting
		l.LastError = err.Error()
	})
	f.metrics[shard].backoffs.Inc()
	f.logf("repl: shard %d: %v (retrying in ~%v)", shard, err, *backoff)
	d := *backoff + time.Duration(rng.Int63n(int64(*backoff)/2+1))
	*backoff *= 2
	if *backoff > backoffMax {
		*backoff = backoffMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// handshake verifies the primary's topology matches ours: same shard
// count and placement hash seed, or the shipped sequence spaces would
// interleave items incompatibly.
func (f *Follower) handshake(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/repl/status", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("primary status: %s", httpError(resp))
	}
	var status StatusResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&status); err != nil {
		return fmt.Errorf("decode primary status: %w", err)
	}
	if status.Shards != f.cfg.Target.NumShards() {
		return fmt.Errorf("topology mismatch: primary has %d shards, replica %d", status.Shards, f.cfg.Target.NumShards())
	}
	if status.HashSeed != f.cfg.Target.HashSeed() {
		return fmt.Errorf("topology mismatch: primary hash seed %d, replica %d", status.HashSeed, f.cfg.Target.HashSeed())
	}
	return nil
}

// goneError carries the 410 bootstrap hint.
type goneError struct {
	oldestSeq   uint64
	snapshotSeq uint64
}

func (e *goneError) Error() string {
	return fmt.Sprintf("compacted past (oldest retained %d, snapshot at %d)", e.oldestSeq, e.snapshotSeq)
}

// streamOnce opens one stream request and applies every frame it
// carries. It returns whether any frame was applied, and an error for
// anything but a cleanly ended response.
func (f *Follower) streamOnce(ctx context.Context, shard int) (progressed bool, err error) {
	st := f.cfg.Target.Shard(shard)
	after := st.AppliedSeq()
	q := url.Values{}
	q.Set("shard", strconv.Itoa(shard))
	q.Set("after", strconv.FormatUint(after, 10))
	if f.cfg.MaxStreamBytes > 0 {
		q.Set("max_bytes", strconv.Itoa(f.cfg.MaxStreamBytes))
	}
	if f.cfg.Wait > 0 {
		q.Set("wait", f.cfg.Wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/repl/stream?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		var body errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
		return false, &goneError{oldestSeq: body.OldestSeq, snapshotSeq: body.SnapshotSeq}
	default:
		return false, fmt.Errorf("stream: %s", httpError(resp))
	}

	primaryNext, _ := strconv.ParseUint(resp.Header.Get(HeaderNextSeq), 10, 64)
	pendingBytes, _ := strconv.ParseInt(resp.Header.Get(HeaderPendingBytes), 10, 64)
	f.update(shard, func(l *ShardLag) {
		l.State = StateTailing
		l.LastError = ""
		l.AppliedSeq = after
		if primaryNext > 0 {
			l.PrimaryNextSeq = primaryNext
			l.LagSeqs = primaryNext - 1 - after
			l.LagBytes = pendingBytes
		}
	})

	fr := wal.NewFrameReader(resp.Body)
	for {
		seq, payload, err := fr.Next()
		if err == io.EOF {
			return progressed, nil
		}
		if err != nil {
			// A mid-frame cut after progress is a dropped connection;
			// anything on a pristine stream (or a CRC failure) is worth
			// logging as an error either way.
			return progressed, fmt.Errorf("stream read: %w", err)
		}
		// The frame's own CRC was just verified; apply it. The store
		// re-checks sequence contiguity.
		if err := st.ApplyReplicated(seq, payload); err != nil {
			return progressed, fmt.Errorf("apply seq %d: %w", seq, err)
		}
		progressed = true
		applied := seq
		frameBytes := int64(wal.FrameSize(len(payload)))
		f.update(shard, func(l *ShardLag) {
			l.AppliedSeq = applied
			l.FramesApplied++
			l.BytesApplied += frameBytes
			if l.PrimaryNextSeq > applied {
				l.LagSeqs = l.PrimaryNextSeq - 1 - applied
			} else {
				l.LagSeqs = 0
			}
		})
	}
}

// bootstrap downloads the primary's latest snapshot for the shard and
// installs it, rebasing the replica past the compaction horizon.
func (f *Follower) bootstrap(ctx context.Context, shard int, gone *goneError) error {
	st := f.cfg.Target.Shard(shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.base+"/v1/repl/snapshot?shard="+strconv.Itoa(shard), nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: %s", httpError(resp))
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
	if err != nil || seq == 0 {
		return fmt.Errorf("snapshot response missing %s", HeaderSnapshotSeq)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot download: %w", err)
	}
	payload, err := wal.DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("snapshot verify: %w", err)
	}
	if err := st.InstallSnapshot(seq, payload); err != nil {
		return err
	}
	f.logf("repl: shard %d: bootstrapped from snapshot at seq %d (%d bytes)", shard, seq, len(raw))
	f.update(shard, func(l *ShardLag) {
		l.AppliedSeq = seq
		l.FramesApplied++
		l.BytesApplied += int64(len(raw))
		l.LastError = ""
	})
	return nil
}

// httpError summarizes a non-2xx response, preferring the JSON error
// body the repl endpoints emit.
func httpError(resp *http.Response) string {
	var body errorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil && body.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, body.Error)
	}
	return resp.Status
}

// ReplicaStatusResponse is the GET /v1/repl/status reply of a replica.
type ReplicaStatusResponse struct {
	Role    string     `json:"role"`
	Primary string     `json:"primary"`
	Shards  int        `json:"shards"`
	Lag     []ShardLag `json:"per_shard"`
}

// ReplicaHandler serves GET /v1/repl/status on a replica, reporting
// per-shard lag. Like PrimaryHandler it mounts detached and is armed
// with Attach once the store and follower exist.
type ReplicaHandler struct {
	mu       sync.Mutex
	follower *Follower
	primary  string
}

// NewReplicaHandler returns a handler with no follower attached.
func NewReplicaHandler() *ReplicaHandler { return &ReplicaHandler{} }

// Attach arms the handler with the running follower.
func (h *ReplicaHandler) Attach(f *Follower, primaryURL string) {
	h.mu.Lock()
	h.follower = f
	h.primary = primaryURL
	h.mu.Unlock()
}

// ServeHTTP implements http.Handler for the replica's /v1/repl/ subtree.
func (h *ReplicaHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "use GET"})
		return
	}
	if r.URL.Path != "/v1/repl/status" {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown replication endpoint (this node is a replica)"})
		return
	}
	h.mu.Lock()
	f, primary := h.follower, h.primary
	h.mu.Unlock()
	if f == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replication follower not ready (boot recovery in progress)"})
		return
	}
	writeJSON(w, http.StatusOK, ReplicaStatusResponse{
		Role:    "replica",
		Primary: primary,
		Shards:  len(f.Lag()),
		Lag:     f.Lag(),
	})
}
