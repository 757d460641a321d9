// Admission control for the serving path: per-endpoint-class
// concurrency limits with a bounded wait queue and load shedding.
//
// A summarization service has two very different request classes:
// cheap reads (item stats, listings) that touch only map lookups, and
// expensive solves (stateless summarize, cache-miss stored summaries)
// that run annotation and a coverage solve. Under overload, unbounded
// concurrency makes everything slow at once — goroutines pile up,
// memory grows with the backlog, and every client eventually times
// out. Admission control inverts that: each class admits at most N
// requests at a time, a bounded queue absorbs short bursts (evicting
// waiters on deadline or client disconnect), and once the queue is
// full the server sheds load immediately with 429 + Retry-After — a
// fast, actionable answer instead of a hung connection.

package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"osars/internal/obs"
)

// Admission defaults.
const (
	// DefaultQueueWait is how long a request may wait for an admission
	// slot before being shed.
	DefaultQueueWait = 1 * time.Second
	// defaultQueuePerSlot sizes the wait queue as a multiple of the
	// concurrency limit when AdmissionConfig.MaxQueue is zero.
	defaultQueuePerSlot = 4
)

// AdmissionConfig tunes the server's per-class admission control.
// Zero-valued limits leave a class unlimited (the pre-admission
// behavior).
type AdmissionConfig struct {
	// MaxInflightSolves bounds concurrently running solve-class
	// requests (POST /v1/summarize and GET /v1/items/{id}/summary).
	// ≤ 0 means unlimited.
	MaxInflightSolves int
	// MaxInflightReads bounds concurrently running cheap-read
	// requests (GET /v1/items and GET /v1/items/{id}). ≤ 0 means
	// unlimited. Reads are so cheap that the default leaves them
	// unlimited; the knob exists for pathological listing storms.
	MaxInflightReads int
	// MaxQueue bounds how many requests per class may wait for a slot
	// (default 4× the class limit). Beyond it requests are shed
	// immediately with 429.
	MaxQueue int
	// QueueWait is the longest a request may wait for a slot before
	// being shed with 429 (default DefaultQueueWait). The request's
	// own context cancelling (client disconnect, server shutdown)
	// evicts it from the queue early.
	QueueWait time.Duration
}

// verdict is the outcome of one admission attempt.
type verdict int

const (
	admitted     verdict = iota // run; caller must release()
	shedFull                    // queue full → 429 now
	shedTimeout                 // waited QueueWait without a slot → 429
	shedCanceled                // client/server context fired while queued
)

// limiter is one endpoint class's admission state: a slot semaphore, a
// bounded wait-queue counter and shed/observability counters.
type limiter struct {
	limit    int
	slots    chan struct{}
	maxQueue int64
	wait     time.Duration

	queued        atomic.Int64
	queueHigh     atomic.Int64
	admitted      atomic.Uint64
	shedFullN     atomic.Uint64
	shedTimeoutN  atomic.Uint64
	shedCanceledN atomic.Uint64

	// lobs mirrors the counters above into the metric registry once
	// armObs runs; the zero value (nil instruments) is free to record
	// into, so acquire never branches on "is observability on".
	lobs limiterObs
}

// limiterObs is one class's interned admission instruments.
type limiterObs struct {
	admitted *obs.Counter
	queuedN  *obs.Counter
	shed     [3]*obs.Counter // indexed by verdict - shedFull
	depth    *obs.Histogram  // queue depth observed at enqueue
	waitHist *obs.Histogram  // time spent queued (queued requests only)
}

// shedReasons maps verdict - shedFull to the shed counter's reason
// label.
var shedReasons = [3]string{"queue_full", "timeout", "canceled"}

// armObs interns the admission instruments for both classes. Nil
// receiver and nil registry are no-ops.
func (a *admission) armObs(reg *obs.Registry) {
	if a == nil || reg == nil {
		return
	}
	a.solves.armObs(reg, "solves")
	a.reads.armObs(reg, "reads")
}

func (l *limiter) armObs(reg *obs.Registry, class string) {
	if l == nil {
		return
	}
	l.lobs = limiterObs{
		admitted: reg.CounterVec("osars_admission_admitted_total",
			"Requests that got an admission slot.", "class").With(class),
		queuedN: reg.CounterVec("osars_admission_queued_total",
			"Requests that had to wait in the admission queue.", "class").With(class),
		depth: reg.HistogramVec("osars_admission_queue_depth",
			"Queue depth observed by each request at enqueue time.",
			obs.SizeBuckets, "class").With(class),
		waitHist: reg.HistogramVec("osars_admission_queue_wait_seconds",
			"Time queued requests spent waiting for a slot, whatever the outcome.",
			nil, "class").With(class),
	}
	shed := reg.CounterVec("osars_admission_shed_total",
		"Requests shed with 429, per reason.", "class", "reason")
	for i, reason := range shedReasons {
		l.lobs.shed[i] = shed.With(class, reason)
	}
}

// newLimiter builds a class limiter; limit ≤ 0 returns nil (the nil
// limiter admits everything).
func newLimiter(limit, maxQueue int, wait time.Duration) *limiter {
	if limit <= 0 {
		return nil
	}
	if maxQueue <= 0 {
		maxQueue = limit * defaultQueuePerSlot
	}
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	return &limiter{
		limit:    limit,
		slots:    make(chan struct{}, limit),
		maxQueue: int64(maxQueue),
		wait:     wait,
	}
}

// acquire tries to admit one request: immediately when a slot is
// free, after a bounded queue wait otherwise. On admitted the caller
// MUST call release exactly once; on every other verdict release is
// nil. waited is the time spent in the queue (zero on the fast path
// and on queue-full sheds) — it feeds the slow log's queue_wait field.
func (l *limiter) acquire(ctx context.Context) (release func(), v verdict, waited time.Duration) {
	if l == nil {
		return func() {}, admitted, 0
	}
	// Fast path: free slot, no queueing, no clock read.
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		l.lobs.admitted.Inc()
		return l.release, admitted, 0
	default:
	}
	// Queue, bounded. The increment-then-check keeps the check
	// race-free: overshooting readers self-correct by decrementing.
	q := l.queued.Add(1)
	if q > l.maxQueue {
		l.queued.Add(-1)
		l.shedFullN.Add(1)
		l.lobs.shed[0].Inc() // queue_full
		return nil, shedFull, 0
	}
	// Track the deepest queue seen (observability: a rising high-water
	// mark under steady traffic means the limit is too low or solves
	// got slower).
	for {
		h := l.queueHigh.Load()
		if q <= h || l.queueHigh.CompareAndSwap(h, q) {
			break
		}
	}
	l.lobs.queuedN.Inc()
	l.lobs.depth.Observe(float64(q))
	enq := time.Now()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	defer l.queued.Add(-1)
	record := func(v verdict) time.Duration {
		waited := time.Since(enq)
		l.lobs.waitHist.Observe(waited.Seconds())
		if v == admitted {
			l.lobs.admitted.Inc()
		} else {
			l.lobs.shed[v-shedFull].Inc()
		}
		return waited
	}
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return l.release, admitted, record(admitted)
	case <-timer.C:
		l.shedTimeoutN.Add(1)
		return nil, shedTimeout, record(shedTimeout)
	case <-ctx.Done():
		l.shedCanceledN.Add(1)
		return nil, shedCanceled, record(shedCanceled)
	}
}

func (l *limiter) release() { <-l.slots }

// ClassStats is one admission class's observable state.
type ClassStats struct {
	// Limit is the configured concurrency bound (0 = unlimited).
	Limit int `json:"limit"`
	// Inflight is the number of currently admitted requests.
	Inflight int `json:"inflight"`
	// Queued is the number of requests currently waiting for a slot.
	Queued int `json:"queued"`
	// QueueHighWater is the deepest wait queue observed since boot.
	QueueHighWater int `json:"queue_high_water"`
	// Admitted counts requests that got a slot.
	Admitted uint64 `json:"admitted"`
	// ShedQueueFull counts requests shed immediately because the wait
	// queue was full.
	ShedQueueFull uint64 `json:"shed_queue_full"`
	// ShedTimeout counts requests shed after waiting QueueWait.
	ShedTimeout uint64 `json:"shed_timeout"`
	// ShedCanceled counts queued requests whose client went away.
	ShedCanceled uint64 `json:"shed_canceled"`
}

func (l *limiter) stats() ClassStats {
	if l == nil {
		return ClassStats{}
	}
	return ClassStats{
		Limit:          l.limit,
		Inflight:       len(l.slots),
		Queued:         int(l.queued.Load()),
		QueueHighWater: int(l.queueHigh.Load()),
		Admitted:       l.admitted.Load(),
		ShedQueueFull:  l.shedFullN.Load(),
		ShedTimeout:    l.shedTimeoutN.Load(),
		ShedCanceled:   l.shedCanceledN.Load(),
	}
}

// AdmissionStats is the per-class admission breakdown served by
// GET /v1/stats.
type AdmissionStats struct {
	Solves ClassStats `json:"solves"`
	Reads  ClassStats `json:"reads"`
}

// admission owns the server's class limiters.
type admission struct {
	solves *limiter
	reads  *limiter
	wait   time.Duration
}

func newAdmission(cfg AdmissionConfig) *admission {
	wait := cfg.QueueWait
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	return &admission{
		solves: newLimiter(cfg.MaxInflightSolves, cfg.MaxQueue, wait),
		reads:  newLimiter(cfg.MaxInflightReads, cfg.MaxQueue, wait),
		wait:   wait,
	}
}

func (a *admission) stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{Solves: a.solves.stats(), Reads: a.reads.stats()}
}

// retryAfterSeconds is the Retry-After hint on shed responses: the
// queue wait rounded up to a whole second (at least 1) — by then at
// least one full queue generation has drained.
func (a *admission) retryAfterSeconds() int {
	secs := int((a.wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shedResponse is the 429 body: the queue depth at shed time lets a
// client (or operator reading an error sample) tell a momentary burst
// from a deep standing backlog, and the retry hint is machine-readable
// without parsing the Retry-After header.
type shedResponse struct {
	Error             string `json:"error"`
	QueueDepth        int    `json:"queue_depth"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// admit wraps a handler with one class limiter. Shed requests get
// 429 + Retry-After and never reach the handler; a queued request
// whose client disconnected gets nothing (the connection is gone).
// The queue wait is deposited on the instrumentation's statusWriter
// (when present) so the slow log can report it.
func (s *Server) admit(class func(*admission) *limiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a := s.admission
		if a == nil {
			h(w, r)
			return
		}
		lim := class(a)
		release, v, waited := lim.acquire(r.Context())
		if sw, ok := w.(*statusWriter); ok {
			sw.queueWait = waited
		}
		switch v {
		case admitted:
			defer release()
			h(w, r)
		case shedFull, shedTimeout:
			retry := a.retryAfterSeconds()
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeJSON(w, http.StatusTooManyRequests, shedResponse{
				Error:             "server is at capacity; retry later",
				QueueDepth:        int(lim.queued.Load()),
				RetryAfterSeconds: retry,
			})
		case shedCanceled:
			// The client is gone; nothing useful can be written.
		}
	}
}

func solveClass(a *admission) *limiter { return a.solves }
func readClass(a *admission) *limiter  { return a.reads }
