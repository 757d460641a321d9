// Package shard partitions the stateful corpus across N independent
// store.Store shards so the serving path scales with cores and WAL
// streams instead of contending on one lock. Every osars.Store is a
// ShardedStore: an unsharded store is the one-shard case.
//
// The paper's workload is naturally partitionable: every item's
// (concept, sentiment) pairs, coverage graph and k-coverage solve are
// independent of every other item (Definitions 1–2, §4) — only the
// ontology and sentiment lexicon are shared, and those are read-only
// after construction. A ShardedStore therefore routes each item ID to
// one shard by a consistent hash (FNV-1a of the ID, seeded with the
// constant DefaultHashSeed, folded through Lamping–Veach jump hash)
// and each shard owns its own mutex, generation counter, LRU
// summary-cache slice and — in durable mode — its own WAL/snapshot
// directory. Two appends to different items on different shards never
// touch the same lock or the same log file, so ingestion throughput
// and fsync latency scale with the shard count.
//
// Durable layout: one shard is the flat layout, the files store.New
// writes, in the data directory itself; more live in shard-NNNN
// subdirectories under a shard-layout.json manifest. Every durable
// open checks the directory against the requested count (checkLayout).
//
// Durable shards also each own an independent group-commit queue
// (store/commit.go): writers hitting the same shard batch into one WAL
// append + one fsync, and because every shard has its own committer,
// the per-shard group commits overlap in the kernel — the two scaling
// axes compose (shards spread the load, group commit amortizes the
// fsyncs within each shard).
//
// Single-item operations (AppendReviews, Item, Summary, Delete) route
// to exactly one shard. Corpus-wide operations (List, Len, Stats) do a
// bounded parallel fan-out and a deterministic k-way merge by item ID,
// so a sharded store's List output is byte-identical to the unsharded
// store's over the same corpus. Recovery at boot opens all shard
// directories in parallel.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/store"
)

// MaxShards bounds the shard count (a directory and a goroutine set
// per shard; more than this is configuration error, not scale).
const MaxShards = 1024

// DefaultHashSeed seeds the item-ID hash. It is a constant, so routing
// is stable across process restarts by construction; the layout
// manifest of a durable sharded store records it, and a manifest
// naming another seed is refused.
const DefaultHashSeed uint64 = 0x6f736172732d7368 // "osars-sh"

// Config configures a ShardedStore.
type Config struct {
	// Shards is the number of independent store partitions (≥ 1).
	Shards int
	// Store is the per-shard configuration template. Store.DataDir is
	// the ROOT data directory: one shard lives in it directly (the flat
	// layout); with more, shard i lives in
	// <DataDir>/shard-<i left-padded to 4 digits>. Empty DataDir means
	// in-memory shards. Cache budgets are split evenly across shards
	// (each shard gets MaxCacheEntries/N entries and MaxCacheBytes/N
	// bytes) so a sharded store's total cache footprint matches the
	// unsharded configuration.
	Store store.Config
}

// ShardedStore is a corpus partitioned across independent store.Store
// shards. It exposes the same method set as store.Store and is safe
// for concurrent use.
type ShardedStore struct {
	shards []*store.Store

	// activeMu serializes ActivateOntology fan-outs so two concurrent
	// activations can not interleave across shards and leave them on
	// different versions.
	activeMu sync.Mutex

	recovered bool
	recovery  store.RecoveryStats
}

// layout is the JSON manifest pinned at the root of a durable data
// directory of more than one shard. Opening the directory with a
// different shard count or hash seed would silently route items to the
// wrong shard, so New refuses instead.
type layout struct {
	Schema   string `json:"schema"`
	Shards   int    `json:"shards"`
	HashSeed uint64 `json:"hash_seed"`
}

const (
	layoutSchema = "osars-shard-layout/v1"
	layoutFile   = "shard-layout.json"
)

// ShardDir returns the data subdirectory of shard i under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// New validates the config, opens (and in durable mode recovers) all
// shards in parallel, and returns the sharded store. Call Close when
// done with a durable store.
func New(cfg Config) (*ShardedStore, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be ≥ 1, got %d", cfg.Shards)
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("shard: Shards must be ≤ %d, got %d", cfg.Shards, MaxShards)
	}
	if cfg.Store.DataDir != "" {
		if err := checkLayout(cfg.Store.DataDir, cfg.Shards); err != nil {
			return nil, err
		}
	}

	s := &ShardedStore{shards: make([]*store.Store, cfg.Shards)}
	start := time.Now()
	// Boot all shards in parallel: durable recovery is I/O- and
	// annotation-bound (snapshot decode + WAL replay), so N shards
	// recover in roughly the time of the largest one.
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := shardConfig(cfg, i)
			st, err := store.New(sc)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			s.shards[i] = st
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Close whatever opened so no shard is left holding its WAL.
		for _, st := range s.shards {
			if st != nil {
				st.Close()
			}
		}
		return nil, err
	}
	// Merge per-shard recovery reports into one corpus-level view.
	for _, st := range s.shards {
		rec, ok := st.Recovery()
		if !ok {
			continue
		}
		s.recovered = true
		s.recovery.SnapshotItems += rec.SnapshotItems
		s.recovery.ReplayedRecords += rec.ReplayedRecords
		s.recovery.TruncatedBytes += rec.TruncatedBytes
		s.recovery.DroppedSegments += rec.DroppedSegments
		s.recovery.Items += rec.Items
		if rec.SnapshotSeq > s.recovery.SnapshotSeq {
			s.recovery.SnapshotSeq = rec.SnapshotSeq
		}
		if rec.LastSeq > s.recovery.LastSeq {
			s.recovery.LastSeq = rec.LastSeq
		}
	}
	if s.recovered {
		s.recovery.Duration = time.Since(start)
	}
	return s, nil
}

// shardConfig derives shard i's store.Config from the template:
// its own data subdirectory (the root itself for a single shard), an
// even split of the cache budgets, and its own "shard" metric label
// (all shards share the template's registry, so per-shard series land
// in the same families).
func shardConfig(cfg Config, i int) store.Config {
	sc := cfg.Store
	if sc.DataDir != "" && cfg.Shards > 1 {
		sc.DataDir = ShardDir(sc.DataDir, i)
	}
	sc.ObsShard = strconv.Itoa(i)
	n := cfg.Shards
	// Budgets: an explicit negative (disabled) passes through; zero
	// (defaults) is resolved here so the split applies to the default
	// too; positives are divided with a floor of 1 entry.
	if sc.MaxCacheEntries == 0 {
		sc.MaxCacheEntries = store.DefaultMaxCacheEntries
	}
	if sc.MaxCacheEntries > 0 {
		if sc.MaxCacheEntries = sc.MaxCacheEntries / n; sc.MaxCacheEntries < 1 {
			sc.MaxCacheEntries = 1
		}
	}
	if sc.MaxCacheBytes == 0 {
		sc.MaxCacheBytes = store.DefaultMaxCacheBytes
	}
	if sc.MaxCacheBytes > 0 {
		if sc.MaxCacheBytes = sc.MaxCacheBytes / int64(n); sc.MaxCacheBytes < 1 {
			sc.MaxCacheBytes = 1
		}
	}
	return sc
}

// checkLayout pins the layout of a durable data directory before any
// shard opens it. One shard is the flat layout: no manifest. More
// shards live under a manifest, written on first use, that must
// afterwards match the requested count and DefaultHashSeed exactly.
// Everything else is refused, because opening it would hide
// acknowledged records: a manifest for another count or seed (items
// would route to the wrong shard, or the shard directories would be
// ignored), flat files without a manifest at more than one shard (the
// flat log is not partitioned; migrating needs a fresh directory), and
// a manifest beside flat files at any count (one of the two would
// never be read).
func checkLayout(root string, shards int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("shard: create data dir: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("shard: scan data dir: %w", err)
	}
	manifest, flat := false, ""
	for _, e := range entries {
		switch name := e.Name(); {
		case name == layoutFile:
			manifest = true
		case flat == "" && (filepath.Ext(name) == ".wal" || filepath.Ext(name) == ".snap"):
			flat = name
		}
	}
	path := filepath.Join(root, layoutFile)
	if !manifest {
		if shards == 1 {
			return nil
		}
		if flat != "" {
			return fmt.Errorf(
				"shard: %s holds a flat (one-shard) store layout (%s); %d shards need a fresh data dir", root, flat, shards)
		}
		return writeLayout(path, layout{Schema: layoutSchema, Shards: shards, HashSeed: DefaultHashSeed})
	}
	if flat != "" {
		return fmt.Errorf(
			"shard: %s holds both a shard layout manifest (%s) and flat store files (%s); "+
				"one of the two would be ignored — move one of them out before opening", root, layoutFile, flat)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("shard: read %s: %w", path, err)
	}
	var l layout
	if err := json.Unmarshal(data, &l); err != nil {
		return fmt.Errorf("shard: parse %s: %w", path, err)
	}
	if l.Schema != layoutSchema {
		return fmt.Errorf("shard: %s: unknown schema %q", path, l.Schema)
	}
	if l.Shards != shards || l.HashSeed != DefaultHashSeed {
		return fmt.Errorf(
			"shard: %s was created with %d shards (hash seed %#x) but %d shards (hash seed %#x) were requested; "+
				"changing the shard layout of an existing data dir would misroute items — use a fresh -data-dir",
			root, l.Shards, l.HashSeed, shards, DefaultHashSeed)
	}
	return nil
}

// writeLayout writes the manifest atomically (temp file + rename) so a
// crash mid-create never leaves a torn manifest.
func writeLayout(path string, l layout) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "shard-layout-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// fnv1a is a seeded FNV-1a over the item ID. Seeding XORs the seed
// into the offset basis, which preserves FNV's avalanche while making
// the placement function deployment-specific.
func fnv1a(seed uint64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// jump is Lamping–Veach jump consistent hash: maps key uniformly onto
// [0, buckets) with the property that growing the bucket count moves
// only ~1/buckets of the keys.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardFor returns the shard index owning the item ID.
func (s *ShardedStore) ShardFor(id string) int {
	return jump(fnv1a(DefaultHashSeed, id), len(s.shards))
}

func (s *ShardedStore) shard(id string) *store.Store {
	return s.shards[s.ShardFor(id)]
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// HashSeed returns the item-placement hash seed, or 0 for a single
// shard, where nothing is placed (what an unsharded primary has always
// reported). A replication follower compares it against the primary's
// so a replica can never silently apply a shard stream under a
// different routing function.
func (s *ShardedStore) HashSeed() uint64 {
	if len(s.shards) == 1 {
		return 0
	}
	return DefaultHashSeed
}

// ReplStatus fans out the per-shard replication positions (WAL end,
// retention horizon, newest snapshot cut). Only durable stores have a
// position; the error from the first non-durable shard is returned.
func (s *ShardedStore) ReplStatus() ([]store.ReplStatus, error) {
	out := make([]store.ReplStatus, len(s.shards))
	errs := make([]error, len(s.shards))
	s.fanOut(func(i int) { out[i], errs[i] = s.shards[i].ReplStatus() })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// Shard returns shard i (test/diagnostic access to a partition).
func (s *ShardedStore) Shard(i int) *store.Store { return s.shards[i] }

// AppendReviews routes the ingest to the item's shard.
func (s *ShardedStore) AppendReviews(id, name string, reviews []extract.RawReview) (store.ItemStats, error) {
	return s.shard(id).AppendReviews(id, name, reviews)
}

// Item routes to the item's shard.
func (s *ShardedStore) Item(id string) (*model.Item, uint64, bool) {
	return s.shard(id).Item(id)
}

// ItemStats routes to the item's shard.
func (s *ShardedStore) ItemStats(id string) (store.ItemStats, bool) {
	return s.shard(id).ItemStats(id)
}

// Summary routes to the item's shard: the solve, cache lookup and
// singleflight all happen on shard-local state.
func (s *ShardedStore) Summary(id string, k int, g model.Granularity, m store.Method) (*store.Summary, bool, error) {
	return s.shard(id).Summary(id, k, g, m)
}

// Delete routes to the item's shard.
func (s *ShardedStore) Delete(id string) (bool, error) {
	return s.shard(id).Delete(id)
}

// fanOut runs fn(i) for every shard index with bounded parallelism.
func (s *ShardedStore) fanOut(fn func(i int)) {
	workers := runtime.GOMAXPROCS(0) * 2
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 {
		for i := range s.shards {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.shards) {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// List fans out across shards in parallel and k-way merges the
// per-shard (already ID-sorted) listings. Items are disjoint across
// shards, so the merged output is exactly the unsharded store's
// ID-sorted List over the same corpus, byte for byte.
func (s *ShardedStore) List() []store.ItemStats {
	per := make([][]store.ItemStats, len(s.shards))
	s.fanOut(func(i int) { per[i] = s.shards[i].List() })
	return mergeByID(per)
}

// mergeByID k-way merges ID-sorted slices into one ID-sorted slice.
func mergeByID(per [][]store.ItemStats) []store.ItemStats {
	total := 0
	live := 0
	for _, p := range per {
		total += len(p)
		if len(p) > 0 {
			live++
		}
	}
	out := make([]store.ItemStats, 0, total)
	if live == 0 {
		return out
	}
	heads := make([]int, len(per))
	for len(out) < total {
		best := -1
		for i, p := range per {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || p[heads[i]].ID < per[best][heads[best]].ID {
				best = i
			}
		}
		out = append(out, per[best][heads[best]])
		heads[best]++
	}
	return out
}

// Len sums the shard sizes.
func (s *ShardedStore) Len() int {
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Stats fans out across shards and aggregates, attaching the
// per-shard breakdown so hot shards and skewed caches are observable.
// A single shard's Stats are returned as they are, with no breakdown.
func (s *ShardedStore) Stats() store.Stats {
	if len(s.shards) == 1 {
		return s.shards[0].Stats()
	}
	per := make([]store.Stats, len(s.shards))
	s.fanOut(func(i int) { per[i] = s.shards[i].Stats() })
	agg := store.Stats{Shards: len(s.shards), PerShard: per}
	if len(per) > 0 {
		agg.ActiveOntology = per[0].ActiveOntology
		agg.ActiveOntologyVersion = per[0].ActiveOntologyVersion
	}
	for i := range per {
		p := &per[i]
		agg.Items += p.Items
		agg.Appends += p.Appends
		agg.Solves += p.Solves
		agg.CacheHits += p.CacheHits
		agg.CacheMisses += p.CacheMisses
		agg.CacheEntries += p.CacheEntries
		agg.CacheBytes += p.CacheBytes
		agg.CacheEvictions += p.CacheEvictions
		agg.StaleItems += p.StaleItems
		agg.Reannotations += p.Reannotations
		agg.OntologyActivations += p.OntologyActivations
		agg.IndexMerges += p.IndexMerges
		agg.IndexRebuilds += p.IndexRebuilds
		agg.IndexWarmHits += p.IndexWarmHits
		agg.IndexWarmFallbacks += p.IndexWarmFallbacks
		if p.ActiveOntologyVersion != agg.ActiveOntologyVersion {
			// A transient mid-activation scrape; never report one shard's
			// version as the whole corpus's.
			agg.ActiveOntology = "mixed"
			agg.ActiveOntologyVersion = "mixed"
		}
		if p.Durable {
			agg.Durable = true
			agg.WALSegments += p.WALSegments
			agg.SnapshotsWritten += p.SnapshotsWritten
			if p.WALLastSeq > agg.WALLastSeq {
				agg.WALLastSeq = p.WALLastSeq
			}
		}
	}
	return agg
}

// ActivateOntology hot-swaps the active ontology runtime on every
// shard (parallel fan-out; all shards are attempted, errors joined).
// Concurrent activations are serialized, so after any successful call
// every shard is on the same version; each shard logs its own activate
// record, so per-shard WALs and replication streams stay independent.
func (s *ShardedStore) ActivateOntology(rt *ontoreg.Runtime) error {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	errs := make([]error, len(s.shards))
	s.fanOut(func(i int) {
		if err := s.shards[i].ActivateOntology(rt); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	})
	return errors.Join(errs...)
}

// ActiveRuntime returns shard 0's active runtime. Shards only diverge
// transiently, mid-activation (or mid-catch-up on a replica).
func (s *ShardedStore) ActiveRuntime() *ontoreg.Runtime {
	return s.shards[0].ActiveRuntime()
}

// Snapshot forces a snapshot + WAL compaction on every shard
// (parallel; first error wins, all shards are still attempted).
func (s *ShardedStore) Snapshot() error {
	errs := make([]error, len(s.shards))
	s.fanOut(func(i int) { errs[i] = s.shards[i].Snapshot() })
	return errors.Join(errs...)
}

// Sync forces every shard's WAL to stable storage.
func (s *ShardedStore) Sync() error {
	errs := make([]error, len(s.shards))
	s.fanOut(func(i int) { errs[i] = s.shards[i].Sync() })
	return errors.Join(errs...)
}

// Recovery returns the merged per-shard recovery report. SnapshotSeq
// and LastSeq are the maxima across shards (each shard numbers its own
// WAL); the counters are sums; Duration is the wall-clock time of the
// parallel recovery.
func (s *ShardedStore) Recovery() (store.RecoveryStats, bool) {
	return s.recovery, s.recovered
}

// PersistErr returns the first recorded background persistence
// failure across shards, if any.
func (s *ShardedStore) PersistErr() error {
	for _, st := range s.shards {
		if err := st.PersistErr(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every shard in parallel. Safe to call more
// than once; returns the first error but closes all shards regardless.
func (s *ShardedStore) Close() error {
	errs := make([]error, len(s.shards))
	s.fanOut(func(i int) { errs[i] = s.shards[i].Close() })
	return errors.Join(errs...)
}
