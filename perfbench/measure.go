package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"osars"
	"osars/internal/coverage"
	"osars/internal/server"
	"osars/internal/summarize"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit, note string }

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEndMetrics is an untraced run's output, in order.
var endToEndMetrics = []metricSpec{
	{"ops_per_s", "1/s", "requests completed per second of the timed phase"},
	{"p50_ms", "ms", "median request latency"},
	{"p99_ms", "ms", "99th-percentile request latency"},
	{"append_p50_ms", "ms", "median latency of the requests that carry reviews"},
	{"summary_p50_ms", "ms", "median latency of the summary requests"},
	{"heap_mb", "MB", "live heap after the timed phase, generated inputs included"},
	{"setup_s", "s", "the program's set-up, input generation excluded"},
}

// perLayerMetrics is a traced run's output, in order.
var perLayerMetrics = []metricSpec{
	{"server.request_ms", "ms", "mean osars_http_request_seconds"},
	{"server.codec_ms", "ms", "JSON decode+encode per request"},
	{"server.unattributed_ms", "ms", "request time minus attributed layer time"},
	{"extract.annotate_ms", "ms", "AnnotateItemWith per request (per append on stateful workloads)"},
	{"extract.reviews", "count", "reviews per request (per stored item on stateful workloads)"},
	{"extract.sentences", "count", "sentences, same base"},
	{"extract.pairs", "count", "concept-sentiment pairs, same base"},
	{"coverage.build_ms", "ms", "coverage.Build per request"},
	{"coverage.targets", "count", "coverage targets per request"},
	{"coverage.edges", "count", "coverage edges per request"},
	{"coverage.graph_ms", "ms", "mean osars_store_graph_build_seconds"},
	{"coverage.index_merge_ms", "ms", "mean osars_store_index_merge_seconds"},
	{"coverage.index_rebuilds", "count", "Stats.IndexRebuilds delta"},
	{"coverage.index_kb_per_item", "KiB", "heap of the three granularity indexes of one fixture item"},
	{"summarize.greedy_ms", "ms", "summarize.Greedy per request"},
	{"summarize.solve_ms", "ms", "mean osars_store_solve_seconds{method=greedy}"},
	{"summarize.warm_hit_ratio", "ratio", "warm hits / summarize.warm_solves"},
	{"summarize.warm_solves", "count", "warm hits + fallbacks"},
	{"store.append_ms", "ms", "mean osars_store_append_seconds"},
	{"store.commit_batch_size", "records", "mean osars_store_commit_batch_size"},
	{"store.cache_hit_ratio", "ratio", "hits / store.cache_lookups"},
	{"store.cache_lookups", "count", "cache hits + misses"},
	{"store.cache_evictions", "count", "Stats.CacheEvictions delta"},
	{"store.solves", "count", "Stats.Solves delta"},
	{"wal.fsyncs", "count", "osars_wal_fsync_seconds count"},
	{"wal.fsync_ms", "ms", "mean osars_wal_fsync_seconds"},
	{"wal.bytes_per_review", "B/review", "osars_wal_bytes_written_total / reviews appended"},
	{"wal.snapshots", "count", "Stats.SnapshotsWritten delta"},
	{"wal.snapshot_ms", "ms", "mean osars_wal_snapshot_seconds"},
	{"wal.recovery_items", "count", "Store.Recovery().Items"},
	{"wal.recovery_replayed", "count", "Store.Recovery().ReplayedRecords"},
	{"trace.ops_per_s", "1/s", "traced ops_per_s; compare with the untraced median for the overhead"},
	{"trace.spans", "count", "spans recorded in the last round"},
}

// rounds is how often a run sets the server up from scratch and replays
// the same op stream. Every end-to-end metric is the median over rounds,
// so a disturbed round or two do not move it.
const rounds = 5

// coldReplays is about how many cold-summarize requests the traced run
// replays layer by layer; codecReps repeats each sampled codec call.
const (
	coldReplays = 1000
	codecReps   = 5
)

// round is what one set-up, warm-up and timed phase measured.
type round struct {
	values            map[string]float64 // end-to-end metrics but setup_s
	samples           map[string]int     // latencies behind each percentile
	perLayer          map[string]float64 // traced runs, last round only
	lines             []string
	attempted, failed int
	checked           int
}

// report is the outcome of a run.
type report struct {
	lines     []string // context printed before the metrics
	endToEnd  []metric
	extra     []metric // printed, not in the JSON
	perLayer  []metric
	attempted int
	failed    int
}

// measure runs the rounds and reports each end-to-end metric's median.
func measure(e *env, in *inputs, setup func(*env, *inputs) (*served, error)) (*report, error) {
	oracle, err := newSummarizer()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var setups []float64 // seconds
	var rs []*round
	checked := 0
	for r := 0; r < rounds; r++ {
		sv, err := setup(e, in)
		if err != nil {
			return nil, err
		}
		for _, d := range sv.setups {
			setups = append(setups, d.Seconds())
		}
		rd, err := measureRound(e, in, sv, oracle, r == rounds-1)
		if cerr := sv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		rs = append(rs, rd)
		rep.attempted += rd.attempted
		rep.failed += rd.failed
		rep.lines = append(rep.lines, rd.lines...)
		checked += rd.checked
	}
	med := make(map[string]float64)
	for _, m := range endToEndMetrics {
		if m.name == "setup_s" {
			rep.endToEnd = append(rep.endToEnd, metric{m.name, medianOf(setups), m.unit, fmt.Sprintf("%s; median of %d set-ups", m.note, len(setups))})
			continue
		}
		vals := make([]string, len(rs))
		var fs []float64
		for i, rd := range rs {
			fs = append(fs, rd.values[m.name])
			vals[i] = fmt.Sprintf("%.6g", rd.values[m.name])
		}
		note := m.note + "; median of rounds " + strings.Join(vals, ", ")
		if n, ok := rs[0].samples[m.name]; ok {
			note += fmt.Sprintf("; %d samples per round", n)
			if m.name == "p99_ms" {
				note += fmt.Sprintf(", %d beyond p99", n-(n*99+99)/100)
			}
		}
		med[m.name] = medianOf(fs)
		rep.endToEnd = append(rep.endToEnd, metric{m.name, med[m.name], m.unit, note})
	}
	rep.extra = []metric{{"error_rate", float64(rep.failed) / float64(rep.attempted), "fraction",
		fmt.Sprintf("%d failed / %d attempted over %d rounds; %d responses checked against the oracle",
			rep.failed, rep.attempted, rounds, checked)}}
	if e.trace {
		v := rs[len(rs)-1].perLayer
		v["trace.ops_per_s"] = med["ops_per_s"]
		for _, pl := range perLayerMetrics {
			rep.perLayer = append(rep.perLayer, metric{pl.name, v[pl.name], pl.unit, pl.note})
		}
	}
	return rep, nil
}

// measureRound warms the server up, runs the timed phase, reads the
// heap and checks the sampled outputs against the oracle. In the last
// round of a traced run it also gathers the per-layer metrics.
func measureRound(e *env, in *inputs, sv *served, oracle *osars.Summarizer, last bool) (*round, error) {
	rd := &round{values: map[string]float64{}, samples: map[string]int{}}
	warm := drive(sv.srv, in, in.Warmup, nil)

	var ins *instruments
	var tr *tracer
	if e.trace {
		ins = watchInstruments(sv.reg, sv.routes)
		tr = newTracer()
	}
	var st0, st1 osars.StoreStats
	if sv.st != nil {
		st0 = sv.st.Stats()
	}
	// Start every timed phase right after a collection, so the garbage
	// collector's cycles fall at the same points of the op stream in
	// every round and run, not wherever set-up and warm-up left them.
	runtime.GC()
	timed := drive(sv.srv, in, in.Timed, tr)
	if ins != nil {
		ins.stop()
	}
	if sv.st != nil {
		st1 = sv.st.Stats()
		// Quiesce background work before reading the heap: Snapshot
		// waits for one in flight and leaves nothing to write.
		if err := sv.st.Sync(); err != nil {
			return nil, err
		}
		if err := sv.st.Snapshot(); err != nil {
			return nil, err
		}
	}
	rd.values["heap_mb"] = liveHeapMB()

	rd.failed = warm.failed + timed.failed
	errs := append(warm.errs, timed.errs...)
	for _, s := range timed.samples {
		if err := check(oracle, in, s); err != nil {
			rd.failed++
			errs = append(errs, err.Error())
		}
	}
	for _, s := range errs[:min(len(errs), 3)] {
		rd.lines = append(rd.lines, "FAILED: "+s)
	}
	rd.checked = len(timed.samples)
	n := timed.requests()
	rd.attempted = warm.requests() + n

	all := timed.latencies(in.Timed)
	if len(all) < 1000 {
		return nil, fmt.Errorf("%d timed requests per round: p99 needs at least 1000 (raise --seconds)", len(all))
	}
	writes, reads := []kind{kindAppend}, []kind{kindSummary}
	if sv.st == nil {
		// Stateless requests carry their reviews and ask for a summary.
		writes, reads = []kind{kindSummarize}, []kind{kindSummarize}
	}
	wl, rl := timed.latencies(in.Timed, writes...), timed.latencies(in.Timed, reads...)
	rd.values["ops_per_s"] = float64(n) / timed.wall.Seconds()
	rd.values["p50_ms"], rd.values["p99_ms"] = ms(quantile(all, 0.5)), ms(quantile(all, 0.99))
	rd.values["append_p50_ms"], rd.values["summary_p50_ms"] = ms(quantile(wl, 0.5)), ms(quantile(rl, 0.5))
	rd.samples["p50_ms"], rd.samples["p99_ms"] = len(all), len(all)
	rd.samples["append_p50_ms"], rd.samples["summary_p50_ms"] = len(wl), len(rl)
	if !e.trace || !last {
		return rd, nil
	}

	v, notes, err := perLayer(in, sv, timed, ins, st0, st1, tr)
	if err != nil {
		return nil, err
	}
	v["trace.spans"] = float64(len(tr.spans))
	rd.perLayer = v
	path := filepath.Join(e.out, "trace-"+e.workload+".csv")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rd.lines = append(rd.lines, notes...)
	rd.lines = append(rd.lines, "spans written to "+path)
	return rd, nil
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer derives the per-layer metrics of a traced run. The program's
// own histograms and Stats give the store, WAL and request times;
// benchmark-side spans around public calls give codec, annotation,
// Build and Greedy.
func perLayer(in *inputs, sv *served, timed *phase, ins *instruments, st0, st1 osars.StoreStats, tr *tracer) (map[string]float64, []string, error) {
	v := make(map[string]float64)
	reqMS, reqN := ins.requestMS()
	v["server.request_ms"] = reqMS
	v["coverage.graph_ms"] = ins.graph.meanMS()
	v["coverage.index_merge_ms"] = ins.merge.meanMS()
	v["summarize.solve_ms"] = ins.solve.meanMS()
	v["store.append_ms"] = ins.append.meanMS()
	v["store.commit_batch_size"] = ins.batch.mean()
	v["wal.fsyncs"] = ins.fsync.count
	v["wal.fsync_ms"] = ins.fsync.meanMS()
	v["wal.snapshot_ms"] = ins.snap.meanMS()
	v["coverage.index_rebuilds"] = float64(st1.IndexRebuilds - st0.IndexRebuilds)
	warmSolves := (st1.IndexWarmHits - st0.IndexWarmHits) + (st1.IndexWarmFallbacks - st0.IndexWarmFallbacks)
	v["summarize.warm_solves"] = float64(warmSolves)
	v["summarize.warm_hit_ratio"] = ratio(st1.IndexWarmHits-st0.IndexWarmHits, warmSolves)
	lookups := (st1.CacheHits - st0.CacheHits) + (st1.CacheMisses - st0.CacheMisses)
	v["store.cache_lookups"] = float64(lookups)
	v["store.cache_hit_ratio"] = ratio(st1.CacheHits-st0.CacheHits, lookups)
	v["store.cache_evictions"] = float64(st1.CacheEvictions - st0.CacheEvictions)
	v["store.solves"] = float64(st1.Solves - st0.Solves)
	v["wal.snapshots"] = float64(st1.SnapshotsWritten - st0.SnapshotsWritten)
	if sv.st != nil {
		if r, ok := sv.st.Recovery(); ok {
			v["wal.recovery_items"], v["wal.recovery_replayed"] = float64(r.Items), float64(r.ReplayedRecords)
		}
	}
	appended := 0
	for _, rqs := range in.Timed {
		for _, rq := range rqs {
			appended += int(rq.Added)
		}
	}
	if appended > 0 {
		v["wal.bytes_per_review"] = float64(ins.walBytes.Value()-ins.walBytes0) / float64(appended)
	}
	v["coverage.index_kb_per_item"] = indexKB(sv.sum, &in.Items[0])

	var notes []string
	var err error
	if sv.st == nil {
		notes, err = replayCold(in, sv, timed, tr, v)
	} else {
		notes, err = replayStateful(in, sv, timed, tr, v, reqMS, reqN, ins)
	}
	if err != nil {
		return nil, nil, err
	}
	notes = append(notes, selfTimeTable(tr)...)
	return v, notes, nil
}

// indexKB is the heap taken by the three granularity coverage indexes
// of one fixture item's initial corpus.
func indexKB(sum *osars.Summarizer, it *fixture) float64 {
	item := sum.AnnotateItem(it.ID, it.Name, toReviews(it.Reviews[:it.Initial]))
	metric := sum.Runtime().Metric
	// Two collections on each side: the first only moves sync.Pool
	// contents to the victim cache, the second frees them.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	var idx []*coverage.Index
	for _, g := range []osars.Granularity{osars.Pairs, osars.Sentences, osars.Reviews} {
		x := coverage.NewIndex(metric, g)
		x.Advance(item)
		idx = append(idx, x)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(idx)
	runtime.KeepAlive(item)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1024
}

// replayCold replays a systematic sample of the timed requests through
// the public calls handleSummarize makes (decode, AnnotateItemWith,
// coverage.Build, summarize.Greedy, encode), each in its own span.
func replayCold(in *inputs, sv *served, timed *phase, tr *tracer, v map[string]float64) ([]string, error) {
	stream := in.Timed[0]
	every := max(1, len(stream)/coldReplays)
	reqDur := make(map[int64]time.Duration, len(timed.spans))
	for _, s := range timed.spans {
		reqDur[s.Req] = s.End - s.Start
	}
	rt := sv.sum.Runtime()
	buf := tr.buffer(7 * (len(stream)/every + 1))
	layer := map[string]time.Duration{}
	var requestTotal time.Duration
	var reviews, sentences, pairs, targets, edges, replays int
	for j := 0; j < len(stream); j += every {
		id := requestID(0, j)
		root := buf.begin(spanReplay, 0, id)
		rootID := buf.spans[root].ID
		var req server.SummarizeRequest
		var err error
		layer[spanCodec] += buf.timed(spanCodec, rootID, id, func() {
			err = json.NewDecoder(bytes.NewReader(stream[j].Body)).Decode(&req)
		})
		if err != nil {
			return nil, err
		}
		gran, err := osars.ParseGranularity(req.Granularity)
		if err != nil {
			return nil, err
		}
		raws := toReviews(req.Reviews)
		var item *osars.Item
		layer[spanAnnotate] += buf.timed(spanAnnotate, rootID, id, func() {
			item = sv.sum.AnnotateItemWith(rt, req.ItemID, req.ItemName, raws)
		})
		var g *coverage.Graph
		layer[spanBuild] += buf.timed(spanBuild, rootID, id, func() { g = coverage.Build(rt.Metric, item, gran) })
		var res *summarize.Result
		layer[spanGreedy] += buf.timed(spanGreedy, rootID, id, func() { res = summarize.Greedy(g, min(req.K, g.NumCandidates)) })
		resp := server.SummarizeResponse{ItemID: req.ItemID, Granularity: gran.String(), Method: "greedy", Cost: res.Cost, NumPairs: len(g.Pairs)}
		var texts []string
		for ri := range item.Reviews {
			for si := range item.Reviews[ri].Sentences {
				texts = append(texts, item.Reviews[ri].Sentences[si].Text)
			}
		}
		for _, u := range res.Selected {
			resp.Sentences = append(resp.Sentences, texts[u])
		}
		var out bytes.Buffer
		layer[spanCodec] += buf.timed(spanCodec, rootID, id, func() { err = json.NewEncoder(&out).Encode(resp) })
		if err != nil {
			return nil, err
		}
		buf.finish(root)
		requestTotal += reqDur[id]
		replays++
		reviews += len(item.Reviews)
		sentences += item.NumSentences()
		pairs += len(g.Pairs)
		targets += len(g.Pairs)
		edges += g.NumEdges()
	}
	tr.keep(timed.spans)
	tr.keep(buf.spans)
	per := func(d time.Duration) float64 { return ms(d) / float64(replays) }
	v["server.codec_ms"] = per(layer[spanCodec])
	v["extract.annotate_ms"] = per(layer[spanAnnotate])
	v["coverage.build_ms"] = per(layer[spanBuild])
	v["summarize.greedy_ms"] = per(layer[spanGreedy])
	attributed := layer[spanCodec] + layer[spanAnnotate] + layer[spanBuild] + layer[spanGreedy]
	v["server.unattributed_ms"] = per(requestTotal - attributed)
	f := float64(replays)
	v["extract.reviews"], v["extract.sentences"], v["extract.pairs"] = float64(reviews)/f, float64(sentences)/f, float64(pairs)/f
	v["coverage.targets"], v["coverage.edges"] = float64(targets)/f, float64(edges)/f
	return []string{fmt.Sprintf("replayed %d of %d timed requests (every %d-th); their server.request spans average %.4f ms, "+
		"of which %.4f ms is attributed to codec+annotate+build+greedy",
		replays, len(stream), every, per(requestTotal), per(attributed))}, nil
}

// replayStateful times the JSON codec on the sampled responses (and
// the appends' annotation through AnnotateItemWith), and attributes the
// mean request time to codec plus the store's append, graph and solve
// histograms.
func replayStateful(in *inputs, sv *served, timed *phase, tr *tracer, v map[string]float64, reqMS, reqN float64, ins *instruments) ([]string, error) {
	rt := sv.sum.Runtime()
	buf := tr.buffer(len(timed.samples) * codecReps * 2)
	var getT, putT, annT time.Duration
	var getN, putN int
	var out bytes.Buffer
	for _, s := range timed.samples {
		rq := &in.Timed[s.client][s.index]
		switch rq.Kind {
		case kindSummary:
			var resp server.ItemSummaryResponse
			if err := json.Unmarshal(s.body, &resp); err != nil {
				return nil, err
			}
			for r := 0; r < codecReps; r++ {
				out.Reset()
				getT += buf.timed(spanCodec, 0, s.id, func() { _ = json.NewEncoder(&out).Encode(resp) })
			}
			getN += codecReps
		case kindAppend:
			var stats osars.ItemStats
			if err := json.Unmarshal(s.body, &stats); err != nil {
				return nil, err
			}
			var req server.AppendReviewsRequest
			for r := 0; r < codecReps; r++ {
				out.Reset()
				putT += buf.timed(spanCodec, 0, s.id, func() {
					_ = json.NewDecoder(bytes.NewReader(rq.Body)).Decode(&req)
					_ = json.NewEncoder(&out).Encode(stats)
				})
			}
			raws := toReviews(req.Reviews)
			for r := 0; r < codecReps; r++ {
				annT += buf.timed(spanAnnotate, 0, s.id, func() { sv.sum.AnnotateItemWith(rt, stats.ID, "", raws) })
			}
			putN += codecReps
		}
	}
	tr.keep(timed.spans)
	tr.keep(buf.spans)
	var gets, puts int
	for _, rqs := range in.Timed {
		for _, rq := range rqs {
			if rq.Kind == kindAppend {
				puts++
			} else {
				gets++
			}
		}
	}
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	codec := (float64(gets)*mean(getT, getN) + float64(puts)*mean(putT, putN)) / float64(gets+puts)
	v["server.codec_ms"] = codec
	v["extract.annotate_ms"] = mean(annT, putN)
	store := (ins.append.sum + ins.graph.sum + ins.solve.sum) * 1000 / reqN
	v["server.unattributed_ms"] = reqMS - codec - store
	items := sv.st.List()
	var reviews, sentences, pairs int
	for _, it := range items {
		reviews += it.NumReviews
		sentences += it.NumSentences
		pairs += it.NumPairs
	}
	f := float64(len(items))
	v["extract.reviews"], v["extract.sentences"], v["extract.pairs"] = float64(reviews)/f, float64(sentences)/f, float64(pairs)/f
	return []string{fmt.Sprintf("attribution per request: %.4f ms request = %.4f codec + %.4f store (append+graph+solve) + %.4f unattributed; "+
		"codec from %d summary and %d append samples", reqMS, codec, store, v["server.unattributed_ms"], getN/codecReps, putN/codecReps)}, nil
}

// selfTimeTable renders each span name's mean duration and self time
// (duration minus the time its child spans cover), with counts.
func selfTimeTable(tr *tracer) []string {
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("%-20s %9s %12s %12s", "span", "count", "mean_ms", "self_ms")}
	for _, n := range names {
		lt := st[n]
		lines = append(lines, fmt.Sprintf("%-20s %9d %12.5f %12.5f", n, lt.count,
			ms(lt.total)/float64(lt.count), ms(lt.own)/float64(lt.count)))
	}
	return lines
}
