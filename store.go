package osars

import (
	"fmt"
	"time"

	"osars/internal/shard"
	"osars/internal/store"
)

// Stateful corpus API: a Store accumulates an item's reviews
// incrementally (only new reviews are annotated), caches solved
// summaries per corpus generation with LRU eviction, and collapses
// concurrent identical reads into one coverage solve. It is the
// library-level counterpart of the server's stateful
// /v1/items endpoints. With StoreOptions.Shards > 1 the corpus is
// partitioned across independent shards (each with its own lock,
// generation counter, summary-cache slice and WAL stream); an
// unsharded store is the one-shard case of the same implementation.
type (
	// ItemStats is the externally visible state of one stored item.
	ItemStats = store.ItemStats
	// StoreStats is a snapshot of store-level counters (cache hits,
	// misses, solves, evictions, resident bytes, WAL position, and —
	// for sharded stores — the per-shard breakdown).
	StoreStats = store.Stats
	// FsyncPolicy selects when a durable Store forces its write-ahead
	// log to stable storage: FsyncAlways, FsyncInterval or FsyncNever.
	FsyncPolicy = store.FsyncPolicy
	// RecoveryStats reports what OpenStore restored from a data
	// directory (snapshot position, replayed records, truncated torn
	// tail); for a sharded store the counters are summed across shards
	// and the sequence fields are per-shard maxima.
	RecoveryStats = store.RecoveryStats
)

// Store is the stateful corpus: a concurrency-safe collection of
// incrementally annotated items with a generation-aware summary cache.
// Create one with Summarizer.NewStore / Summarizer.OpenStore. Its one
// implementation is shard.ShardedStore, which routes each item to one
// of StoreOptions.Shards independent partitions by a consistent hash,
// so appends and solves on different items stop contending on one
// lock and one WAL stream. It stays an interface so callers can wrap
// or substitute a store.
type Store interface {
	// AppendReviews ingests new reviews for the item, creating it if
	// needed; only the new reviews are annotated. On a durable store
	// the raw reviews hit the write-ahead log before the call returns.
	AppendReviews(id, name string, reviews []Review) (ItemStats, error)
	// Item returns the current annotated snapshot and generation
	// (read-only).
	Item(id string) (*Item, uint64, bool)
	// ItemStats returns the stats of one item.
	ItemStats(id string) (ItemStats, bool)
	// List returns the stats of every item, sorted by ID, byte-identical
	// at every shard count over the same corpus.
	List() []ItemStats
	// Len returns the number of items.
	Len() int
	// Summary returns the k-unit summary of the item's current corpus;
	// cached reports whether the summary cache answered it (an LRU hit
	// or a joined concurrent request).
	Summary(id string, k int, g Granularity, m Method) (*Summary, bool, error)
	// Delete removes an item and purges its cached summaries.
	Delete(id string) (bool, error)
	// Stats returns the store-level counters.
	Stats() StoreStats
	// ActivateOntology hot-swaps the active ontology runtime: new
	// requests annotate and solve under rt, in-flight requests finish
	// on the runtime they pinned, and items annotated under the old
	// version re-annotate lazily on their next summarize. On a durable
	// store the activation is logged to the WAL (so it survives restart
	// and ships to replicas), which requires a registry-born runtime;
	// replicas reject local activation with store.ErrReadOnly.
	ActivateOntology(rt *OntologyRuntime) error
	// ActiveRuntime returns the active ontology runtime (never nil).
	ActiveRuntime() *OntologyRuntime
	// Snapshot forces a snapshot + WAL compaction now (no-op for
	// in-memory stores).
	Snapshot() error
	// Sync forces everything logged so far to stable storage (no-op
	// for in-memory stores).
	Sync() error
	// Recovery reports what OpenStore restored from disk; ok is false
	// for in-memory stores.
	Recovery() (RecoveryStats, bool)
	// PersistErr returns the most recent background fsync/snapshot
	// failure, if any.
	PersistErr() error
	// Close flushes the WAL, writes a final snapshot and releases the
	// log (no-op for in-memory stores). Safe to call more than once.
	Close() error
}

// The one corpus implementation satisfies the Store interface.
var _ Store = (*shard.ShardedStore)(nil)

// The write-ahead log fsync policies.
const (
	// FsyncAlways syncs before every acknowledgment (default):
	// acknowledged writes survive power loss.
	FsyncAlways = store.FsyncAlways
	// FsyncInterval syncs on a background timer: near-FsyncNever
	// throughput, bounded loss window.
	FsyncInterval = store.FsyncInterval
	// FsyncNever leaves syncing to the OS: survives process crashes,
	// not power loss.
	FsyncNever = store.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseFsyncPolicy(s) }

// ErrItemNotFound is returned by Store reads for unknown item IDs.
var ErrItemNotFound = store.ErrNotFound

// StoreOptions tunes a Store's summary cache, durability and
// partitioning. The zero value is a one-shard in-memory store with
// the default cache budgets (store.DefaultMaxCacheEntries entries,
// 64 MiB).
type StoreOptions struct {
	// MaxCacheEntries bounds the number of cached summaries
	// (default 1024; negative disables caching). In a sharded store
	// the budget is split evenly across shards.
	MaxCacheEntries int
	// MaxCacheBytes bounds the cache's approximate resident size
	// (default 64 MiB; negative means entry-count-only). Split evenly
	// across shards.
	MaxCacheBytes int64

	// Shards partitions the corpus across this many independent
	// stores (default/≤1: a single partition). Each shard owns its own
	// lock, generation counter, summary-cache slice and — in durable
	// mode — its own WAL/snapshot directory: DataDir itself for one
	// shard (the flat layout), <DataDir>/shard-NNNN for more. Items
	// route to shards by a consistent hash of the item ID, which is
	// stable across restarts. A durable data directory is pinned to its
	// layout and cannot be reopened with a different shard count.
	Shards int

	// DataDir makes the store durable: ingestion is written to a
	// segmented write-ahead log under this directory before it is
	// acknowledged, snapshots bound recovery time, and OpenStore
	// restores latest-snapshot-then-replay. Empty means in-memory.
	DataDir string
	// Fsync selects the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot and compacts the WAL after this
	// many logged records per shard (default 4096; negative disables
	// automatic snapshots).
	SnapshotEvery int
	// WALSegmentBytes is the WAL segment rotation threshold
	// (default 8 MiB).
	WALSegmentBytes int64

	// Replica opens the store as a read-only replica: AppendReviews and
	// Delete fail with store.ErrReadOnly, and state advances only
	// through a replication follower (internal/repl) applying WAL
	// records shipped from a primary. Reads and summaries serve
	// normally. Combine with DataDir so the replica resumes from its
	// last applied sequence after a restart.
	Replica bool

	// Metrics, when non-nil, registers the store's instruments (append
	// and solve latency histograms, cache hit/miss/eviction counters,
	// group-commit batch sizes, WAL fsync/bytes/rotation series) in the
	// given registry. In a sharded store every series carries a "shard"
	// label. Nil leaves the store uninstrumented at zero cost.
	Metrics *MetricsRegistry
}

// NewStore builds an in-memory stateful corpus sharing this
// Summarizer's ontology, metric, extraction pipeline and RNG seed.
// For a durable store (StoreOptions.DataDir) use OpenStore, which can
// report recovery I/O errors; NewStore panics on them.
func (s *Summarizer) NewStore(opts StoreOptions) Store {
	st, err := s.OpenStore(opts)
	if err != nil {
		// Only reachable with a DataDir that fails to open/recover or
		// an invalid shard count: a Summarizer built by New always
		// carries a non-nil ontology and pipeline.
		panic(fmt.Sprintf("osars: NewStore: %v", err))
	}
	return st
}

// OpenStore builds a stateful corpus, durable when opts.DataDir is
// set: previous state is recovered from the newest valid snapshot
// plus a write-ahead-log replay (Store.Recovery reports what was
// restored), and every subsequent acknowledged write survives a
// restart. With opts.Shards > 1 the corpus is partitioned across that
// many independent shards (recovered in parallel at boot). A data
// directory written under another shard count is refused. Call
// Store.Close on shutdown to flush the log(s) and write final
// snapshots.
func (s *Summarizer) OpenStore(opts StoreOptions) (Store, error) {
	cfg := store.Config{
		Runtime:         s.rt,
		Seed:            s.seed,
		MaxCacheEntries: opts.MaxCacheEntries,
		MaxCacheBytes:   opts.MaxCacheBytes,
		DataDir:         opts.DataDir,
		Fsync:           opts.Fsync,
		FsyncInterval:   opts.FsyncInterval,
		SnapshotEvery:   opts.SnapshotEvery,
		SegmentBytes:    opts.WALSegmentBytes,
		Replica:         opts.Replica,
		Obs:             opts.Metrics,
	}
	st, err := shard.New(shard.Config{Shards: max(opts.Shards, 1), Store: cfg})
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return st, nil
}
