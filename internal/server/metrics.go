// HTTP-layer observability: per-route request counters, status-class
// counters, latency histograms, an in-flight gauge and the structured
// slow-request log, plus the GET /metrics exposition endpoint.
//
// The wiring problem here is ordering: routes are registered in
// NewWithStore, but the registry only arrives later via
// ConfigureObservability (the same "call before serving traffic"
// contract as ConfigureAdmission). So every route gets a routeMetrics
// placeholder at registration time, and configuration "arms" the
// placeholders by interning their instruments. Until then — and
// forever, when observability is off — the instrument pointers are nil
// and the obs package's nil-receiver no-ops make every record a single
// branch.

package server

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"osars/internal/obs"
)

// ObservabilityConfig arms the server's metrics and slow-request log.
type ObservabilityConfig struct {
	// Metrics, when non-nil, registers the HTTP-layer instruments and
	// enables GET /metrics (Prometheus text exposition of the whole
	// registry — hand the same registry to StoreOptions.Metrics and the
	// replication follower so one scrape covers every layer). Nil
	// leaves /metrics answering 404.
	Metrics *obs.Registry
	// SlowRequestThreshold, when > 0, logs one structured line for
	// every request at least this slow (method, route, status,
	// duration, queue wait, shard). Zero disables the slow log.
	SlowRequestThreshold time.Duration
	// SlowLogf receives slow-request lines (default log.Printf).
	SlowLogf func(format string, args ...interface{})
}

// serverMetrics is the armed observability state; a nil *serverMetrics
// on the Server means ConfigureObservability was never called.
type serverMetrics struct {
	reg      *obs.Registry
	handler  http.Handler // the registry's exposition handler
	inflight *obs.Gauge
	slow     *obs.SlowLog
}

// routeMetrics is one registered route's instruments. Zero until
// ConfigureObservability arms it. Two registrations sharing a path
// (GET and DELETE /v1/items/{id}) intern the same children, so their
// series aggregate across methods — the route label stays low-
// cardinality and method shows up in the slow log instead.
type routeMetrics struct {
	route    string
	requests *obs.Counter
	classes  [5]*obs.Counter // 1xx..5xx
	seconds  *obs.Histogram
}

var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// ConfigureObservability arms the HTTP instruments, the /metrics
// endpoint and the slow-request log. Call once, before the server
// starts handling traffic (order relative to ConfigureAdmission does
// not matter — each call arms the other's half if it is already
// there).
func (s *Server) ConfigureObservability(cfg ObservabilityConfig) {
	m := &serverMetrics{reg: cfg.Metrics}
	if reg := cfg.Metrics; reg != nil {
		m.handler = reg.Handler()
		m.inflight = reg.Gauge("osars_http_inflight_requests",
			"Requests currently being handled (all instrumented routes).")
		requests := reg.CounterVec("osars_http_requests_total",
			"Requests handled, per route pattern.", "route")
		responses := reg.CounterVec("osars_http_responses_total",
			"Responses written, per route pattern and status class.", "route", "class")
		seconds := reg.HistogramVec("osars_http_request_seconds",
			"Request handling latency in seconds (including admission queue wait), per route pattern.",
			nil, "route")
		for _, rm := range s.routes {
			rm.requests = requests.With(rm.route)
			rm.seconds = seconds.With(rm.route)
			for i, class := range statusClasses {
				rm.classes[i] = responses.With(rm.route, class)
			}
		}
	}
	if cfg.SlowRequestThreshold > 0 {
		var slowN *obs.Counter
		if cfg.Metrics != nil {
			slowN = cfg.Metrics.Counter("osars_http_slow_requests_total",
				"Requests that exceeded the slow-request threshold.")
		}
		m.slow = &obs.SlowLog{
			Threshold: cfg.SlowRequestThreshold,
			Logf:      cfg.SlowLogf,
			Slow:      slowN,
		}
	}
	s.obsM = m
	if s.admission != nil {
		s.admission.armObs(cfg.Metrics)
	}
}

// handle registers pattern on the mux with the route-level
// instrumentation wrapper. The route label is the pattern minus any
// method prefix ("PUT /v1/items/{id}/reviews" → "/v1/items/{id}/
// reviews"), keeping label cardinality at one series per pattern.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	s.mux.HandleFunc(pattern, s.instrument(route, h))
}

// instrument wraps h with the per-route instruments. It sits OUTSIDE
// the admission wrapper, so the latency histogram includes queue wait
// and shed 429s are counted like any other response. When
// observability was never configured the wrapper is one nil check.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := &routeMetrics{route: route}
	s.routes = append(s.routes, rm)
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.obsM
		if m == nil {
			h(w, r)
			return
		}
		start := time.Now()
		m.inflight.Add(1)
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter = w
		h(sw, r)
		m.inflight.Add(-1)
		dur := time.Since(start)
		status, queueWait := sw.Status(), sw.queueWait
		*sw = statusWriter{}
		statusWriters.Put(sw)
		rm.requests.Inc()
		if c := status/100 - 1; c >= 0 && c < len(rm.classes) {
			rm.classes[c].Inc()
		}
		rm.seconds.Observe(dur.Seconds())
		if slow := m.slow; slow != nil && dur >= slow.Threshold {
			slow.Record(r.Method, route, status, dur, queueWait, s.shardOf(r))
		}
	}
}

// statusWriters pools the instrumentation's writers, so an armed
// server does not allocate one per request. A writer goes back empty,
// holding no ResponseWriter, once its handler has returned.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// statusWriter captures the response status for the route counters and
// carries the admission queue wait from the admit wrapper out to the
// slow log.
type statusWriter struct {
	http.ResponseWriter
	status    int
	wrote     bool
	queueWait time.Duration
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Status is the written status; a handler that never wrote implicitly
// answered 200.
func (w *statusWriter) Status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.status
}

// Unwrap keeps http.ResponseController features (flush, hijack,
// deadlines) reachable through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// shardOf resolves the shard owning the request's item, for the slow
// log; -1 when the route carries no {id}, the store is absent, or the
// store is unsharded. Only called for requests already past the slow
// threshold, so the extra hash never touches the fast path.
func (s *Server) shardOf(r *http.Request) int {
	id := r.PathValue("id")
	if id == "" {
		return -1
	}
	if sh, ok := s.Store().(interface{ ShardFor(string) int }); ok {
		return sh.ShardFor(id)
	}
	return -1
}

// handleMetrics serves the Prometheus exposition. Never admission- or
// boot-gated: metrics must be scrapeable exactly when the server is
// saturated or still recovering its WAL.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.obsM
	if m == nil || m.handler == nil {
		writeError(w, http.StatusNotFound, "metrics disabled (start with -metrics)")
		return
	}
	m.handler.ServeHTTP(w, r)
}
