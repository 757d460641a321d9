package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"osars/internal/obs"
)

// Span names: one per layer boundary the benchmark calls across.
const (
	spanRequest  = "server.request"   // Server.ServeHTTP
	spanReplay   = "replay"           // one request replayed through handleSummarize's public calls
	spanCodec    = "server.codec"     // JSON decode or encode of a request or response type
	spanAnnotate = "extract.annotate" // Summarizer.AnnotateItemWith
	spanBuild    = "coverage.build"   // coverage.Build
	spanGreedy   = "summarize.greedy" // summarize.Greedy
)

// span is one timed call. Spans of one request share Req; Parent is
// the ID of the span that made the call (0 for a root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64 // buffers handed out, for disjoint span IDs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span log; merge it with keep.
type spanBuf struct {
	tr    *tracer
	base  int64
	spans []span
}

func (t *tracer) buffer(capacity int) *spanBuf {
	t.mu.Lock()
	t.next++
	base := t.next << 40
	t.mu.Unlock()
	return &spanBuf{tr: t, base: base, spans: make([]span, 0, capacity)}
}

// add records a finished call.
func (b *spanBuf) add(name string, parent, req int64, start time.Time, d time.Duration) int64 {
	id := b.base + int64(len(b.spans)) + 1
	s := start.Sub(b.tr.epoch)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + d})
	return id
}

// begin opens a span whose end is set by finish; it returns the span's
// index in the buffer.
func (b *spanBuf) begin(name string, parent, req int64) int {
	b.add(name, parent, req, time.Now(), 0)
	return len(b.spans) - 1
}

func (b *spanBuf) finish(i int) { b.spans[i].End = time.Since(b.tr.epoch) }

// timed runs f inside a child span of parent.
func (b *spanBuf) timed(name string, parent, req int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b.add(name, parent, req, t0, d)
	return d
}

func (t *tracer) keep(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// layerTime sums, per span name, the count, duration and self time
// (duration minus the part its children cover).
type layerTime struct {
	count      int
	total, own time.Duration
}

func (t *tracer) selfTimes() map[string]*layerTime {
	children := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.count++
		lt.total += d
		lt.own += d - min(children[s.ID], d)
	}
	return out
}

// write stores every span as CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	sort.Slice(t.spans, func(a, b int) bool { return t.spans[a].Start < t.spans[b].Start })
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histDelta is a histogram's change over the timed phase.
type histDelta struct {
	h          *obs.Histogram
	count0     uint64
	sum0       float64
	count, sum float64
}

func watchHist(h *obs.Histogram) *histDelta {
	return &histDelta{h: h, count0: h.Count(), sum0: h.Sum()}
}

func (d *histDelta) stop() {
	d.count = float64(d.h.Count() - d.count0)
	d.sum = d.h.Sum() - d.sum0
}

// mean is the mean observation (0 when none).
func (d *histDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

// meanMS is the mean of a seconds histogram in milliseconds.
func (d *histDelta) meanMS() float64 { return d.mean() * 1000 }

// instruments fetches the program's own histograms and counters from
// the registry by name. Fetch them after the store opened, so each
// family already has the layout its owner registered.
type instruments struct {
	request                                         []*histDelta // one per route the workload uses
	append, graph, merge, solve, batch, fsync, snap *histDelta
	walBytes                                        *obs.Counter
	walBytes0                                       uint64
}

func watchInstruments(reg *obs.Registry, routes []string) *instruments {
	shard := func(name string) *obs.Histogram { return reg.HistogramVec(name, "", nil, "shard").With("0") }
	ins := &instruments{
		append:   watchHist(shard("osars_store_append_seconds")),
		graph:    watchHist(shard("osars_store_graph_build_seconds")),
		merge:    watchHist(shard("osars_store_index_merge_seconds")),
		solve:    watchHist(reg.HistogramVec("osars_store_solve_seconds", "", nil, "shard", "method").With("0", "greedy")),
		batch:    watchHist(shard("osars_store_commit_batch_size")),
		fsync:    watchHist(shard("osars_wal_fsync_seconds")),
		snap:     watchHist(shard("osars_wal_snapshot_seconds")),
		walBytes: reg.CounterVec("osars_wal_bytes_written_total", "", "shard").With("0"),
	}
	ins.walBytes0 = ins.walBytes.Value()
	for _, r := range routes {
		ins.request = append(ins.request, watchHist(reg.HistogramVec("osars_http_request_seconds", "", nil, "route").With(r)))
	}
	return ins
}

func (ins *instruments) stop() {
	for _, d := range append([]*histDelta{ins.append, ins.graph, ins.merge, ins.solve, ins.batch, ins.fsync, ins.snap}, ins.request...) {
		d.stop()
	}
}

// requestMS is the mean osars_http_request_seconds over all routes.
func (ins *instruments) requestMS() (float64, float64) {
	var n, sum float64
	for _, d := range ins.request {
		n += d.count
		sum += d.sum
	}
	if n == 0 {
		return 0, 0
	}
	return sum / n * 1000, n
}
