// Command osars-bench is the cold-path benchmark-regression harness.
//
// Run mode (default) measures the cold serving path layer by layer —
// annotation, stemmed concept matching, coverage-graph build (batch and
// through the incremental index), greedy selection, cost evaluation,
// and the full end-to-end Summarize — on
// the same doctor-review fixture as the BenchmarkCold* benches in
// bench_test.go, plus the durability tax on ingestion: store appends
// with the WAL off (StoreAppendMem), WAL on without fsync
// (StoreAppendWALNoSync) and WAL on with fsync-per-ack
// (StoreAppendWALSync). Results are written as JSON:
//
//	osars-bench -o BENCH_coldpath.json        # full run (~1s/bench)
//	osars-bench -short -o /tmp/smoke.json     # CI smoke (~50ms/bench)
//	osars-bench -count 5 -o BENCH_coldpath.json
//
// With -count N each benchmark runs N times; its row records the
// median run's ns/op, B/op and allocs/op, plus the fastest and slowest
// ns/op and the count.
//
// Compare mode diffs two result files and fails (exit 1) when any
// benchmark's ns/op regressed beyond the tolerance:
//
//	osars-bench -compare BENCH_coldpath.json new.json -tol 0.25
//
// The ns/op gate uses -tol; allocs/op gets only a tiny fixed slack
// (2% and ≥2 absolute — enough to absorb the b.N-dependent fixture
// mix, small enough to catch any real allocation regression). A row
// measured at a different GOMAXPROCS in the two files fails too: its
// numbers are not comparable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osars"
	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/obs"
	"osars/internal/sentiment"
	"osars/internal/shard"
	"osars/internal/store"
	"osars/internal/summarize"
	"osars/internal/text"
	"osars/internal/wal"
)

const benchK = 5

// Result is one benchmark's measurement, serialized to JSON.
// GOMAXPROCS is the effective processor limit the benchmark ran at:
// the multi-writer benches raise a floor of benchProcsFloor, so it can
// exceed the file-level GOMAXPROCS. Files written before every row
// recorded it omit it on single-threaded rows, which ran at the
// file-level value. For concurrent benchmarks, Writers is the
// goroutine count driving the load; it is omitted for single-threaded
// benchmarks, whose ns/op is a plain per-op latency. For Writers > 1,
// ns/op is wall-time divided by total ops across all writers —
// aggregate throughput is 1e9/ns_per_op ops/sec. A row
// measured with -count N > 1 is the median run, and Count,
// NsPerOpMin and NsPerOpMax record the spread; they are omitted for a
// single run.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Writers     int     `json:"writers,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	Count       int     `json:"count,omitempty"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
}

// benchProcsFloor is the GOMAXPROCS floor the multi-writer benchmarks
// run at (see shardMixedBench for why).
const benchProcsFloor = 4

// File is the BENCH_coldpath.json schema. PrePRBaseline is an
// optional historical record (the same benchmarks measured on the
// code before a cold-path optimization PR) carried in a committed
// baseline for before/after context; run mode does not write it and
// compare mode ignores it.
type File struct {
	Schema        string    `json:"schema"`
	Generated     time.Time `json:"generated"`
	GoVersion     string    `json:"go"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Short         bool      `json:"short"`
	Benchmarks    []Result  `json:"benchmarks"`
	PrePRBaseline []Result  `json:"pre_pr_baseline,omitempty"`
}

// fixture mirrors coldFix() in bench_test.go: a small doctor-review
// corpus exercising the full extraction + coverage pipeline.
type fixture struct {
	sum   *osars.Summarizer
	pipe  *extract.Pipeline
	mat   *extract.Matcher // stemmed matcher
	met   model.Metric
	raws  [][]extract.RawReview
	items []*model.Item
	toks  [][]string
}

func buildFixture() *fixture {
	cfg := dataset.DoctorConfig(1)
	cfg.NumItems = 3
	cfg.TotalReviews = 210
	cfg.MinReviews = 60
	cfg.MaxReviews = 80
	c := dataset.Generate(cfg)
	s, err := osars.New(osars.Config{Ontology: c.Ont})
	if err != nil {
		panic(err)
	}
	f := &fixture{
		sum:  s,
		pipe: extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{}),
		mat:  extract.NewMatcherWithOptions(c.Ont, extract.MatcherOptions{Stem: true}),
		met:  model.Metric{Ont: c.Ont, Epsilon: 0.5},
	}
	for _, it := range c.Items {
		var raws []extract.RawReview
		for _, r := range it.Reviews {
			raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
		}
		f.raws = append(f.raws, raws)
		f.items = append(f.items, f.pipe.AnnotateItem(it.ID, it.Name, raws))
	}
	for _, r := range c.Items[0].Reviews {
		for _, sent := range text.SplitSentences(r.Text) {
			f.toks = append(f.toks, text.Tokenize(sent))
		}
	}
	return f
}

// bench is one registered benchmark: its body plus the writer count
// recorded into the result metadata (0 = single-threaded).
type bench struct {
	name    string
	writers int
	fn      func(b *testing.B)
}

// benches returns the named benchmark bodies, mirroring the
// BenchmarkCold* set in bench_test.go so `go test -bench Cold` and
// this harness measure the same code paths.
func benches(f *fixture) []bench {
	g := coverage.Build(f.met, f.items[0], model.GranularitySentences)
	sel := summarize.Greedy(g, benchK).Selected
	return []bench{
		{name: "ColdAnnotateItem", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.pipe.AnnotateItem("d", "Doc", f.raws[i%len(f.raws)])
			}
		}},
		{name: "ColdMatcherStemmed", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.mat.MatchTokens(f.toks[i%len(f.toks)])
			}
		}},
		{name: "ColdBuildSentences", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coverage.Build(f.met, f.items[i%len(f.items)], model.GranularitySentences)
			}
		}},
		{name: "ColdIndexSentences", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := coverage.NewIndex(f.met, model.GranularitySentences)
				idx.Advance(f.items[i%len(f.items)])
				idx.Freeze()
			}
		}},
		{name: "ColdGreedySentences", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize.Greedy(g, benchK)
			}
		}},
		{name: "IndexGreedySentences", fn: indexGreedyBench(f)},
		{name: "ColdCostOf", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.CostOf(sel)
			}
		}},
		{name: "ColdSummarize", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(f.raws)
				item := f.sum.AnnotateItem("d", "Doc", f.raws[j])
				if _, err := f.sum.Summarize(item, benchK, osars.Sentences, osars.MethodGreedy); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "StoreAppendMem", fn: storeAppendBench(f, false, store.FsyncNever)},
		{name: "StoreAppendWALNoSync", fn: storeAppendBench(f, true, store.FsyncNever)},
		{name: "StoreAppendWALSync", fn: storeAppendBench(f, true, store.FsyncAlways)},
		{name: "ShardMixed1", writers: 16, fn: shardMixedBench(f, 1)},
		{name: "ShardMixed4", writers: 16, fn: shardMixedBench(f, 4)},
		{name: "ShardMixed16", writers: 16, fn: shardMixedBench(f, 16)},
		{name: "GroupCommitSync1", writers: 1, fn: groupCommitBench(f, 1, false)},
		{name: "GroupCommitSync4", writers: 4, fn: groupCommitBench(f, 4, false)},
		{name: "GroupCommitSync16", writers: 16, fn: groupCommitBench(f, 16, false)},
		{name: "GroupCommitSync16Obs", writers: 16, fn: groupCommitBench(f, 16, true)},
		{name: "ReplTail", fn: replTailBench()},
		{name: "ObsHistogramObserve", fn: obsObserveBench()},
		{name: "ColdStoreSummarize", fn: coldStoreSummarizeBench(f, false)},
		{name: "ColdStoreSummarizeObs", fn: coldStoreSummarizeBench(f, true)},
		{name: "AppendThenSummarizeCold", fn: appendThenSummarizeBench(f, true)},
		{name: "AppendThenSummarizeIncremental", fn: appendThenSummarizeBench(f, false)},
	}
}

// indexGreedyBench measures the selection layer at the scale of a
// followed item, mirroring BenchmarkIndexGreedySentences: GreedyWarm,
// seeded with its previous selection, on the index-frozen sentences
// graph of one 1,000-review doctor item (about 5,000 candidates, of
// which the lazy greedy refreshes hundreds per solve). The 70-review
// item of ColdGreedySentences hides how the heap scales.
func indexGreedyBench(f *fixture) func(b *testing.B) {
	cfg := dataset.DoctorConfig(1)
	cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, 1000, 1000, 1000
	raw := dataset.GenerateWithOntology(cfg, f.met.Ont).Items[0]
	raws := make([]extract.RawReview, len(raw.Reviews))
	for i, r := range raw.Reviews {
		raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	idx := coverage.NewIndex(f.met, model.GranularitySentences)
	idx.Merge(f.pipe.AnnotateItem(raw.ID, raw.Name, raws).Reviews)
	g := idx.Freeze()
	prev := summarize.Greedy(g, benchK)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			summarize.GreedyWarm(g, benchK, prev)
		}
	}
}

// appendThenSummarizeBench measures the append→summarize round trip on
// ONE large item — the dashboard-follows-ingest pattern the
// incremental coverage index targets. Each op appends a single review
// and immediately solves a greedy summary of the grown corpus. The
// incremental variant asks the store (cache off, so every Summary
// solves): the append merges only the new review's occurrences into
// the item's index and the solve warm-starts from the previous
// selection, so the op is O(delta) plus a freeze copy. The cold
// variant runs the same append loop but solves outside the store, with
// coverage.Build over the store's current snapshot and
// summarize.Greedy, so the op is O(corpus); it never asks the store
// for a summary, so the store builds no index to maintain. The item is
// torn down and re-ingested at its base size every recycleEvery ops
// (off-timer) so corpus growth over b.N stays bounded and both
// variants solve the same corpus-size mix; the off-timer warm-up solve
// after each re-ingest keeps the index's one-time O(corpus) rebuild
// out of the measured steady state, which is exactly the amortization
// a serving process sees.
func appendThenSummarizeBench(f *fixture, cold bool) func(b *testing.B) {
	const (
		baseReviews  = 1000
		recycleEvery = 128
	)
	// Synthesize the big corpus from the fixture texts (same ontology
	// and pipeline) with fresh review IDs.
	flat := make([]extract.RawReview, 0, len(f.raws)*len(f.raws[0]))
	for _, rs := range f.raws {
		flat = append(flat, rs...)
	}
	base := make([]extract.RawReview, baseReviews)
	for i := range base {
		base[i] = flat[i%len(flat)]
		base[i].ID = fmt.Sprintf("base-%d", i)
	}
	return func(b *testing.B) {
		st, err := store.New(store.Config{
			Metric:          f.met,
			Pipeline:        f.pipe,
			SnapshotEvery:   -1,
			MaxCacheEntries: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		solve := func() {
			if cold {
				item, _, _ := st.Item("big")
				g := coverage.Build(f.met, item, model.GranularitySentences)
				summarize.Greedy(g, min(benchK, g.NumCandidates))
				return
			}
			if _, _, err := st.Summary("big", benchK, model.GranularitySentences, store.MethodGreedy); err != nil {
				b.Fatal(err)
			}
		}
		reingest := func() {
			if _, err := st.Delete("big"); err != nil {
				b.Fatal(err)
			}
			if _, err := st.AppendReviews("big", "Doc", base); err != nil {
				b.Fatal(err)
			}
			// Off-timer warm-up: builds the incremental index (in the
			// incremental variant) and seeds the warm-start selection.
			solve()
		}
		reingest()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%recycleEvery == 0 {
				b.StopTimer()
				reingest()
				b.StartTimer()
			}
			rev := flat[i%len(flat)]
			rev.ID = fmt.Sprintf("a-%d", i)
			if _, err := st.AppendReviews("big", "", []extract.RawReview{rev}); err != nil {
				b.Fatal(err)
			}
			solve()
		}
		b.StopTimer()
	}
}

// obsObserveBench measures the metrics hot path in isolation: one
// Histogram.Observe per op over a typical request-latency mix (mostly
// sub-5ms with a slow tail). The observability acceptance bar is
// < 20ns/op and — asserted in CI — exactly 0 allocs/op: an instrument
// cheap enough to leave on unconditionally in every layer.
func obsObserveBench() func(b *testing.B) {
	vals := [...]float64{0.0002, 0.0004, 0.0008, 0.003, 0.0006, 0.0011, 0.0003, 0.02}
	return func(b *testing.B) {
		reg := obs.NewRegistry()
		h := reg.Histogram("bench_seconds", "bench", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(vals[i%len(vals)])
		}
	}
}

// coldStoreSummarizeBench measures the stateful cold-summary serving
// path — append one review (generation bump), then a cache-missing
// Summary solve — with instrumentation off and on. The pair records
// the observability tax on the solve path in BENCH_coldpath.json; it
// should be lost in the noise (a handful of Observe calls against a
// solve measured in hundreds of microseconds). Pool recycling mirrors
// storeAppendBench so the live corpus stays bounded.
func coldStoreSummarizeBench(f *fixture, instrumented bool) func(b *testing.B) {
	const (
		pool    = 64
		perItem = 16
	)
	return func(b *testing.B) {
		cfg := store.Config{
			Metric:        f.met,
			Pipeline:      f.pipe,
			SnapshotEvery: -1,
		}
		if instrumented {
			cfg.Obs = obs.NewRegistry()
		}
		st, err := store.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		ids := make([]string, pool)
		for i := range ids {
			ids[i] = fmt.Sprintf("item-%d", i)
		}
		rev := f.raws[0][:1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[(i/perItem)%pool]
			if i%perItem == 0 {
				if _, err := st.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.AppendReviews(id, "", rev); err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.Summary(id, benchK, model.GranularitySentences, store.MethodGreedy); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// replTailBench measures the primary-side replication read path: one
// op drains a fresh wal.Tail over a 512-record log spanning several
// segments — the raw-frame reads, CRC re-verification and sequence
// checks a /v1/repl/stream response performs per catch-up. The log is
// built once; every op re-reads it cold from offset 0, so the number
// includes the skip-scan positioning and per-segment file opens a
// reconnecting follower pays.
func replTailBench() func(b *testing.B) {
	const (
		records     = 512
		payloadSize = 256
	)
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "osars-bench-repltail-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 32 << 10})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		payload := make([]byte, payloadSize)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		for i := 0; i < records; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(records * wal.FrameSize(payloadSize)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tail, err := l.TailAfter(0)
			if err != nil {
				b.Fatal(err)
			}
			got := 0
			for {
				_, n, _, err := tail.Next(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
				got += n
			}
			if got != records {
				b.Fatalf("drained %d records, want %d", got, records)
			}
			tail.Close()
		}
		b.StopTimer()
	}
}

// storeAppendBench measures one-review ingestion into the stateful
// store: in-memory (the WAL-off baseline), WAL-on without fsync
// (page-cache durability) and WAL-on with fsync-per-ack (the full
// durability tax). Appends cycle over a fixed pool of item ids and
// each item is recycled (deleted and restarted) after perItem appends,
// so the live heap stays bounded: a fresh id per iteration makes
// per-op cost climb with b.N as the GC scans an ever-growing corpus,
// and so would unbounded appends to pooled items — either would swamp
// the logging cost being measured. The amortized Delete (1/perItem of ops, itself one
// WAL record in durable mode) is part of the measured steady state.
// Automatic snapshots are disabled so the run isolates the WAL append
// itself.
func storeAppendBench(f *fixture, durable bool, fsync store.FsyncPolicy) func(b *testing.B) {
	const (
		pool    = 1024
		perItem = 16
	)
	return func(b *testing.B) {
		cfg := store.Config{
			Metric:        f.met,
			Pipeline:      f.pipe,
			SnapshotEvery: -1,
		}
		if durable {
			dir, err := os.MkdirTemp("", "osars-bench-wal-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			cfg.DataDir = dir
			cfg.Fsync = fsync
		}
		st, err := store.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		ids := make([]string, pool)
		for i := range ids {
			ids[i] = fmt.Sprintf("item-%d", i)
		}
		rev := f.raws[0][:1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[(i/perItem)%pool]
			if i%perItem == 0 {
				if _, err := st.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.AppendReviews(id, "", rev); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// groupCommitBench measures aggregate fsync-per-ack ingestion
// throughput at W concurrent writers against ONE unsharded durable
// store — the group-commit payoff in isolation, with no sharding and
// no summary reads mixed in. Every append must be durable before it is
// acknowledged (FsyncAlways); without group commit the W writers would
// serialize W fsyncs per W acks, so ns/op would be flat in W. With the
// commit queue, concurrent writers stage their pre-encoded records and
// share one WAL write + one fsync per batch, so aggregate ns/op (wall
// time over total ops) should drop toward 1/W of the single-writer
// number until the disk's sync latency floors it. GroupCommitSync1 is
// the no-concurrency control: one writer never has anyone to share a
// sync with, so it measures the queue's overhead over the serial path
// (compare StoreAppendWALSync). The acceptance gate for this PR is
// GroupCommitSync16 throughput ≥ 5× the serial single-writer baseline.
// Item pools and delete-recycling mirror storeAppendBench so the live
// heap stays bounded; each writer owns a private id pool, so the only
// shared state is the store itself. instrumented additionally arms a
// metric registry on the store: GroupCommitSync16 vs
// GroupCommitSync16Obs records the observability tax on the hottest
// contended path (a few atomic Observes per commit batch).
func groupCommitBench(f *fixture, writers int, instrumented bool) func(b *testing.B) {
	const (
		perWriter = 64 // ids per writer pool
		perItem   = 16 // appends per item between recycles
	)
	return func(b *testing.B) {
		if writers > 1 {
			// Same GOMAXPROCS floor as shardMixedBench: with fewer Ps
			// than concurrently-returning fsyncs, scheduler handoff
			// dominates the measurement.
			if procs := runtime.GOMAXPROCS(0); procs < benchProcsFloor {
				runtime.GOMAXPROCS(benchProcsFloor)
				defer runtime.GOMAXPROCS(procs)
			}
		}
		dir, err := os.MkdirTemp("", "osars-bench-groupcommit-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg := store.Config{
			Metric:        f.met,
			Pipeline:      f.pipe,
			SnapshotEvery: -1,
			DataDir:       dir,
			Fsync:         store.FsyncAlways,
		}
		if instrumented {
			cfg.Obs = obs.NewRegistry()
		}
		st, err := store.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		rev := f.raws[0][:1]
		var (
			next     atomic.Int64
			errOnce  sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
		b.ResetTimer()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; ; n++ {
					if int(next.Add(1)) > b.N {
						return
					}
					id := fmt.Sprintf("item-%d-%d", w, (n/perItem)%perWriter)
					if n%perItem == 0 {
						if _, err := st.Delete(id); err != nil {
							fail(err)
							return
						}
					}
					if _, err := st.AppendReviews(id, "", rev); err != nil {
						fail(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
	}
}

// shardMixedBench measures the durable serving path under concurrent
// mixed load — the workload the sharded store exists for — at a given
// shard count. 16 writer goroutines model 16 partitioned ingest
// loaders: each owns a private pool of 16 item ids routed (via
// ShardFor) to shard w mod N, so in-flight operations always land on
// distinct shards up to the shard count. Each worker alternates
// appending a short review with a cold summary read of the same item
// (the append advanced the item's generation, so the cached entry is
// stale by construction — a read-your-writes dashboard pattern), and
// on every 16th full pass over its pool the worker recycles each item
// with a summary followed by a delete, bounding the live corpus. The
// store runs fsync-per-ack: in the 1-shard configuration every
// acknowledged write serializes behind one mutex and one WAL file, so
// throughput is capped by the serial
// fsync chain with the solve CPU added on top; with N shards the same
// 16 writers hold N independent locks and overlap their fsyncs in the
// kernel (blocking syscalls overlap regardless of core count) while
// summary-solve CPU hides under the other shards' log waits. The
// acceptance gate for the sharded store is ShardMixed16 throughput
// ≥ 4× ShardMixed1.
func shardMixedBench(f *fixture, shards int) func(b *testing.B) {
	const (
		writers   = 16
		perWorker = 16 // ids per worker pool
		perItem   = 16 // full passes over the pool between recycles
		sumEvery  = 2  // every 2nd op reads instead of appending
	)
	return func(b *testing.B) {
		// The workload keeps up to 16 goroutines blocked in fsync at
		// once. With GOMAXPROCS < 4 the runtime has too few Ps to
		// re-dispatch goroutines promptly as their syscalls return and
		// the measurement is dominated by scheduler handoff instead of
		// the store, so raise the floor to 4 for this benchmark. Both
		// the 1-shard and N-shard configurations get the same setting
		// (the serial chain is insensitive to it — one op is in flight
		// at a time), and hardware cores still bound CPU parallelism.
		if procs := runtime.GOMAXPROCS(0); procs < benchProcsFloor {
			runtime.GOMAXPROCS(benchProcsFloor)
			defer runtime.GOMAXPROCS(procs)
		}
		dir, err := os.MkdirTemp("", "osars-bench-shard-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := shard.New(shard.Config{
			Shards: shards,
			Store: store.Config{
				Metric:        f.met,
				Pipeline:      f.pipe,
				SnapshotEvery: -1,
				DataDir:       dir,
				Fsync:         store.FsyncAlways,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		// Pin each worker's pool to one shard: worker w probes id
		// candidates until perWorker of them route to shard w mod N.
		// (With shards=1 every id routes to shard 0, so all three
		// configurations run the identical op sequence.)
		pools := make([][]string, writers)
		for w := 0; w < writers; w++ {
			want := w % shards
			for n := 0; len(pools[w]) < perWorker; n++ {
				id := fmt.Sprintf("item-%d-%d", w, n)
				if st.ShardFor(id) == want {
					pools[w] = append(pools[w], id)
				}
			}
		}
		rev := []extract.RawReview{{ID: "r", Text: "The staff was friendly and the wait was short."}}
		var (
			next     atomic.Int64
			errOnce  sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
		b.ResetTimer()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mine := pools[w]
				for n := 0; ; n++ {
					if int(next.Add(1)) > b.N {
						return
					}
					id := mine[n%perWorker]
					switch {
					case n%(perWorker*perItem) >= perWorker*perItem-perWorker:
						// Recycle pass: cold summary, then delete.
						_, _, err := st.Summary(id, benchK, model.GranularitySentences, store.MethodGreedy)
						if err != nil && !errors.Is(err, store.ErrNotFound) {
							fail(err)
							return
						}
						if _, err := st.Delete(id); err != nil {
							fail(err)
							return
						}
					case n%sumEvery == sumEvery-1:
						if _, _, err := st.Summary(id, benchK, model.GranularitySentences, store.MethodGreedy); err != nil && !errors.Is(err, store.ErrNotFound) {
							fail(err)
							return
						}
					default:
						if _, err := st.AppendReviews(id, "", rev); err != nil {
							fail(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
	}
}

func runMode(out string, short bool, only string, count int) error {
	if count < 1 {
		return fmt.Errorf("-count must be at least 1, got %d", count)
	}
	// testing.Benchmark honours -test.benchtime; register the testing
	// flags so we can shrink it for the CI smoke run.
	benchtime := "1s"
	if short {
		benchtime = "50ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	var filter *regexp.Regexp
	if only != "" {
		var err error
		if filter, err = regexp.Compile(only); err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
	}
	f := buildFixture()
	file := File{
		Schema:     "osars-bench/v1",
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      short,
	}
	for _, bm := range benches(f) {
		if filter != nil && !filter.MatchString(bm.name) {
			continue
		}
		fn := bm.fn
		runs := make([]testing.BenchmarkResult, count)
		for i := range runs {
			runs[i] = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				fn(b)
			})
		}
		nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
		sort.Slice(runs, func(i, j int) bool { return nsPerOp(runs[i]) < nsPerOp(runs[j]) })
		r := runs[(count-1)/2]
		res := Result{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     nsPerOp(r),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Writers:     bm.writers,
		}
		if count > 1 {
			res.Count = count
			res.NsPerOpMin = nsPerOp(runs[0])
			res.NsPerOpMax = nsPerOp(runs[count-1])
		}
		res.GOMAXPROCS = runtime.GOMAXPROCS(0)
		if bm.writers > 1 && res.GOMAXPROCS < benchProcsFloor {
			res.GOMAXPROCS = benchProcsFloor
		}
		file.Benchmarks = append(file.Benchmarks, res)
		fmt.Printf("%-22s %10d iters  %12.0f ns/op  %8d B/op  %6d allocs/op",
			res.Name, res.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if count > 1 {
			fmt.Printf("  (min %.0f, max %.0f of %d)", res.NsPerOpMin, res.NsPerOpMax, count)
		}
		fmt.Println()
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "osars-bench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return &f, nil
}

// procs returns the GOMAXPROCS row r of file f ran at.
func (f *File) procs(r Result) int {
	if r.GOMAXPROCS > 0 {
		return r.GOMAXPROCS
	}
	return f.GOMAXPROCS
}

func compareMode(w io.Writer, oldPath, newPath string, tol float64) error {
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Result{}
	for _, r := range oldF.Benchmarks {
		oldBy[r.Name] = r
	}
	failed := false
	fmt.Fprintf(w, "%-22s %14s %14s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "verdict")
	for _, n := range newF.Benchmarks {
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(w, "%-22s %14s %14.0f %8s  new\n", n.Name, "-", n.NsPerOp, "-")
			continue
		}
		delete(oldBy, n.Name)
		ratio := n.NsPerOp/o.NsPerOp - 1
		verdict := "ok"
		if ratio > tol {
			verdict = fmt.Sprintf("FAIL (> %+.0f%% tolerance)", tol*100)
			failed = true
		}
		// Allocs are near-deterministic; allow only jitter from the
		// b.N-dependent fixture mix (2% and at least 2 absolute).
		allocSlack := o.AllocsPerOp / 50
		if allocSlack < 2 {
			allocSlack = 2
		}
		if n.AllocsPerOp > o.AllocsPerOp+allocSlack {
			verdict = fmt.Sprintf("FAIL (allocs %d -> %d)", o.AllocsPerOp, n.AllocsPerOp)
			failed = true
		}
		if op, np := oldF.procs(o), newF.procs(n); op != np {
			verdict = fmt.Sprintf("FAIL (gomaxprocs %d -> %d)", op, np)
			failed = true
		}
		fmt.Fprintf(w, "%-22s %14.0f %14.0f %+7.1f%%  %s\n", n.Name, o.NsPerOp, n.NsPerOp, ratio*100, verdict)
	}
	for name := range oldBy {
		fmt.Fprintf(w, "%-22s missing from %s\n", name, newPath)
		failed = true
	}
	if failed {
		return fmt.Errorf("benchmark regression beyond tolerance %.0f%%, or rows not comparable", tol*100)
	}
	fmt.Fprintln(w, "all benchmarks within tolerance")
	return nil
}

func main() {
	out := flag.String("o", "BENCH_coldpath.json", "output file for run mode (\"-\" for stdout)")
	short := flag.Bool("short", false, "CI smoke mode: ~50ms per benchmark instead of ~1s")
	only := flag.String("run", "", "run mode: only benchmarks matching this regexp")
	count := flag.Int("count", 1, "run mode: run each benchmark N times and record the median run with the min and max ns/op")
	compare := flag.Bool("compare", false, "compare mode: osars-bench -compare OLD.json NEW.json")
	tol := flag.Float64("tol", 0.25, "compare mode: allowed fractional ns/op regression (0.25 = +25%)")
	testing.Init() // registers -test.benchtime before flag.Parse
	flag.Parse()

	var err error
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: osars-bench -compare OLD.json NEW.json [-tol 0.25]")
			os.Exit(2)
		}
		err = compareMode(os.Stdout, flag.Arg(0), flag.Arg(1), *tol)
	} else {
		err = runMode(*out, *short, *only, *count)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osars-bench:", err)
		os.Exit(1)
	}
}
