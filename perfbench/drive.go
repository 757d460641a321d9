package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// recorder is a reusable http.ResponseWriter: the server writes into
// memory, with no socket between the client and the handler.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: make(http.Header)} }

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
}

// sample is a response kept for the oracle, copied out of the recorder.
type sample struct {
	client, index int
	id            int64
	body          []byte
}

// phase is one closed-loop pass over per-client op streams.
type phase struct {
	wall    time.Duration
	lat     [][]time.Duration // per client, aligned with its stream
	failed  int
	errs    []string // the first few failures, for the report
	samples []sample
	spans   []span
}

// requestID numbers requests across clients: client c's j-th request.
func requestID(c, j int) int64 { return int64(c)<<32 | int64(j+1) }

// drive runs every client's stream against h, one goroutine per client,
// each sending its next request only after the previous one returned.
// With tr set it records one server.request span per request.
func drive(h http.Handler, in *inputs, streams [][]request, tr *tracer) *phase {
	ph := &phase{lat: make([][]time.Duration, len(streams))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range streams {
		ph.lat[c] = make([]time.Duration, len(streams[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream, lat := streams[c], ph.lat[c]
			w := newRecorder()
			var buf *spanBuf
			if tr != nil {
				buf = tr.buffer(len(stream))
			}
			var failed int
			var errs []string
			var samples []sample
			for j := range stream {
				rq := &stream[j]
				method, target := in.route(rq)
				var body io.Reader = http.NoBody
				if rq.Body != nil {
					body = bytes.NewReader(rq.Body)
				}
				req, err := http.NewRequest(method, target, body)
				if err != nil {
					failed++
					errs = append(errs, err.Error())
					continue
				}
				w.reset()
				t0 := time.Now()
				h.ServeHTTP(w, req)
				lat[j] = time.Since(t0)
				if buf != nil {
					buf.add(spanRequest, 0, requestID(c, j), t0, lat[j])
				}
				if w.status/100 != 2 {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("%s %s: %d %s", method, target, w.status, bytes.TrimSpace(w.body.Bytes())))
					}
				}
				if rq.Check {
					samples = append(samples, sample{client: c, index: j, id: requestID(c, j), body: bytes.Clone(w.body.Bytes())})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.failed += failed
			ph.errs = append(ph.errs, errs...)
			ph.samples = append(ph.samples, samples...)
			if buf != nil {
				ph.spans = append(ph.spans, buf.spans...)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	sort.Slice(ph.samples, func(a, b int) bool { return ph.samples[a].id < ph.samples[b].id })
	return ph
}

// requests counts a phase's requests.
func (ph *phase) requests() int {
	n := 0
	for _, l := range ph.lat {
		n += len(l)
	}
	return n
}

// latencies returns the sorted latencies of the requests of the given
// kinds (all kinds when none are given).
func (ph *phase) latencies(streams [][]request, kinds ...kind) []time.Duration {
	var out []time.Duration
	for c, l := range ph.lat {
		for j, d := range l {
			if len(kinds) == 0 || hasKind(kinds, streams[c][j].Kind) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func hasKind(kinds []kind, k kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB is the live heap after two forced collections, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
