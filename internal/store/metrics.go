// Store-layer metrics. One storeMetrics value is built per store (so
// per SHARD in a sharded deployment — every instrument carries the
// shard label) from the registry handed in via Config.Obs. With a nil
// registry every instrument pointer is nil and, because obs methods
// are nil-receiver safe, every call site below degrades to a single
// branch: the store code instruments unconditionally and never checks
// "is observability on".

package store

import "osars/internal/obs"

// storeMetrics holds the store's interned instruments. The zero value
// is the disabled state.
type storeMetrics struct {
	appendSeconds   *obs.Histogram    // end-to-end AppendReviews latency (annotate + commit)
	graphSeconds    *obs.Histogram    // coverage-graph acquisition (cold build or index catch-up + freeze)
	solveSeconds    [4]*obs.Histogram // selection-algorithm latency, indexed by Method
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheEvictions  *obs.Counter
	commitBatch     *obs.Histogram // group-commit batch size (records per durable commit)
	snapshotSeconds *obs.Histogram // snapshot + WAL compaction duration

	// Incremental coverage index instruments.
	indexMergeSeconds  *obs.Histogram // append-path index merges (O(delta) maintenance)
	indexRebuilds      *obs.Counter   // indexes built from scratch at solve time
	indexWarmHits      *obs.Counter   // greedy runs whose selection is a prefix of the stored one
	indexWarmFallbacks *obs.Counter   // the other greedy runs

	// Ontology lifecycle instruments.
	reannotations *obs.Counter   // lazy re-annotations after an ontology swap
	reannSeconds  *obs.Histogram // per-item re-annotation latency
	activations   *obs.Counter   // ontology runtime swaps applied

	// WAL instruments, injected into wal.Options at Open.
	walFsync     *obs.Histogram
	walBytes     *obs.Counter
	walRotations *obs.Counter
}

// newStoreMetrics interns every store/WAL instrument for one shard
// label. A nil registry returns the zero (disabled) value.
func newStoreMetrics(reg *obs.Registry, shard string) storeMetrics {
	if reg == nil {
		return storeMetrics{}
	}
	if shard == "" {
		shard = "0"
	}
	m := storeMetrics{
		appendSeconds: reg.HistogramVec("osars_store_append_seconds",
			"End-to-end AppendReviews latency (annotation plus durable commit) in seconds.",
			nil, "shard").With(shard),
		graphSeconds: reg.HistogramVec("osars_store_graph_build_seconds",
			"Coverage-graph acquisition latency in seconds: a cold build, or the incremental index's catch-up plus freeze.",
			nil, "shard").With(shard),
		indexMergeSeconds: reg.HistogramVec("osars_store_index_merge_seconds",
			"Append-path incremental coverage index merge latency in seconds (delta maintenance, off the commit critical section).",
			nil, "shard").With(shard),
		indexRebuilds: reg.CounterVec("osars_store_index_rebuilds_total",
			"Coverage indexes rebuilt from scratch at solve time (recovered snapshots, replicas, first solve of an item).",
			"shard").With(shard),
		indexWarmHits: reg.CounterVec("osars_store_index_warm_hits_total",
			"Greedy runs whose selection is a prefix of the item's stored selection at that granularity.", "shard").With(shard),
		indexWarmFallbacks: reg.CounterVec("osars_store_index_warm_fallbacks_total",
			"Greedy runs with no stored selection, a shorter one, or one the corpus delta changed.",
			"shard").With(shard),
		cacheHits: reg.CounterVec("osars_store_cache_hits_total",
			"Summary-cache hits.", "shard").With(shard),
		cacheMisses: reg.CounterVec("osars_store_cache_misses_total",
			"Summary-cache misses.", "shard").With(shard),
		cacheEvictions: reg.CounterVec("osars_store_cache_evictions_total",
			"Summary-cache evictions (entry or byte budget).", "shard").With(shard),
		commitBatch: reg.HistogramVec("osars_store_commit_batch_size",
			"Records per group commit: 1 means no batching, higher means N writers shared one fsync.",
			obs.SizeBuckets, "shard").With(shard),
		snapshotSeconds: reg.HistogramVec("osars_wal_snapshot_seconds",
			"Snapshot write + WAL compaction duration in seconds.",
			nil, "shard").With(shard),
		reannotations: reg.CounterVec("osars_store_reannotations_total",
			"Items lazily re-annotated after an ontology swap.", "shard").With(shard),
		reannSeconds: reg.HistogramVec("osars_store_reannotation_seconds",
			"Per-item corpus re-annotation latency in seconds.",
			nil, "shard").With(shard),
		activations: reg.CounterVec("osars_store_ontology_activations_total",
			"Ontology runtime activations applied (local, replayed or replicated).",
			"shard").With(shard),
		walFsync: reg.HistogramVec("osars_wal_fsync_seconds",
			"WAL fsync latency in seconds (real syncs only; no-op syncs are skipped).",
			nil, "shard").With(shard),
		walBytes: reg.CounterVec("osars_wal_bytes_written_total",
			"Framed bytes written to WAL segments.", "shard").With(shard),
		walRotations: reg.CounterVec("osars_wal_segment_rotations_total",
			"WAL segment rotations, including the initial segment.", "shard").With(shard),
	}
	solves := reg.HistogramVec("osars_store_solve_seconds",
		"Selection-algorithm latency in seconds, per summarization method (graph acquisition is osars_store_graph_build_seconds).",
		nil, "shard", "method")
	for _, mm := range []Method{MethodGreedy, MethodRR, MethodILP, MethodLocalSearch} {
		m.solveSeconds[mm] = solves.With(shard, mm.String())
	}
	return m
}
