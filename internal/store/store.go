// Package store is the stateful corpus layer of the service: an
// in-memory, concurrency-safe collection of annotated items with
// incremental review ingestion, a generation-aware LRU summary cache
// and singleflight deduplication of concurrent identical solves.
//
// The stateless API re-annotates and re-solves every request from
// scratch; real review platforms accumulate reviews incrementally and
// answer many summary reads per write. The store serves that workload:
//
//   - AppendReviews runs the extraction pipeline over ONLY the new
//     reviews and appends them to the cached annotated item in place,
//     after every length a reader holds (so concurrent readers keep a
//     consistent snapshot), bumping the item's generation counter.
//   - Summary answers from an LRU cache keyed by (item, generation,
//     k, granularity, method); a warm read skips both annotation and
//     the coverage solve. Generations are minted from a store-global
//     counter, so even a deleted-then-recreated item can never collide
//     with a stale cache entry.
//   - Concurrent identical misses collapse into one coverage solve via
//     singleflight.
//   - Each item keeps its last greedy selection per granularity; a
//     greedy miss for the same generation at an equal or smaller k
//     renders its prefix instead of solving.
package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"osars/internal/coverage"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/obs"
	"osars/internal/ontoreg"
	"osars/internal/summarize"
)

// Method selects the summarization algorithm (greedy, rr, ilp,
// local-search). The root package re-exports it as osars.Method, so
// the stateless and stored paths share one algorithm selector.
type Method int

// The supported algorithms.
const (
	MethodGreedy Method = iota
	MethodRR
	MethodILP
	MethodLocalSearch
)

func (m Method) String() string {
	switch m {
	case MethodGreedy:
		return "greedy"
	case MethodRR:
		return "randomized-rounding"
	case MethodILP:
		return "ilp"
	case MethodLocalSearch:
		return "local-search"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrNotFound is returned when an item ID is not in the store.
var ErrNotFound = errors.New("store: item not found")

// Default cache budgets.
const (
	DefaultMaxCacheEntries = 1024
	DefaultMaxCacheBytes   = 64 << 20 // 64 MiB
)

// Config configures a Store.
type Config struct {
	// Runtime is the initial active ontology runtime (required: the
	// Definition-1/2 metric, the annotation pipeline and a version
	// identity; ontoreg.ConfigRuntime builds an unversioned one from a
	// metric and a pipeline). The active runtime can later be
	// hot-swapped with ActivateOntology; on a durable store a recovered
	// activation record overrides this initial value.
	Runtime *ontoreg.Runtime
	// Seed drives randomized rounding (default 1).
	Seed int64
	// MaxCacheEntries bounds the summary cache entry count
	// (default DefaultMaxCacheEntries; negative disables caching).
	MaxCacheEntries int
	// MaxCacheBytes bounds the cache's approximate resident bytes
	// (default DefaultMaxCacheBytes; negative means entries-only).
	MaxCacheBytes int64

	// DataDir enables durable persistence: ingestion is written to a
	// segmented write-ahead log in this directory before it is
	// acknowledged, periodic snapshots bound recovery time, and New
	// restores latest-snapshot-then-replay on boot. Empty means
	// in-memory only (the pre-durability behavior).
	DataDir string
	// Fsync selects when the WAL is forced to stable storage
	// (default FsyncAlways). Ignored without DataDir.
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot (and compacts the WAL) after
	// this many logged records (default DefaultSnapshotEvery;
	// negative disables automatic snapshots — they still happen on
	// Close and via Snapshot).
	SnapshotEvery int
	// SegmentBytes is the WAL segment rotation threshold
	// (default wal.DefaultSegmentBytes).
	SegmentBytes int64

	// Obs, when non-nil, registers the store's instruments (append and
	// solve latency, cache hit/miss/eviction counters, group-commit
	// batch sizes, WAL fsync/bytes/rotations) in this registry. The
	// sharded wrapper passes one shared registry to every shard.
	Obs *obs.Registry
	// ObsShard is the value of the "shard" label on this store's
	// instruments (default "0"). Set by the sharded wrapper.
	ObsShard string

	// Replica opens the store in read-only replica mode: local writes
	// (AppendReviews, Delete) are rejected with ErrReadOnly and state
	// advances only through ApplyReplicated / InstallSnapshot, fed by a
	// replication follower (internal/repl). Works with or without
	// DataDir; a durable replica persists the shipped records locally
	// so a restart resumes from its last applied sequence.
	Replica bool
}

// Store is the in-memory corpus. All methods are safe for concurrent
// use.
type Store struct {
	// rt is the active ontology runtime (metric + pipeline + version).
	// Reads are lock-free loads; swaps (ActivateOntology, WAL replay,
	// replica apply) happen under s.mu so they are ordered with the
	// applied-sequence bookkeeping. A request pins the runtime it loads
	// and finishes on it — the swap only redirects FUTURE requests.
	rt   atomic.Pointer[ontoreg.Runtime]
	seed int64

	// replica marks a read-only replica (Config.Replica). appliedSeq is
	// the WAL sequence number of the newest applied record: the log
	// position on a durable store, the last shipped record on an
	// in-memory replica, and 0 on an in-memory primary, which logs
	// nothing. Guarded by mu.
	replica    bool
	appliedSeq uint64

	mu      sync.RWMutex
	items   map[string]*entry
	nextGen uint64 // store-global so generations are never reused across delete/recreate

	cache   *lruCache
	group   flightGroup
	metrics storeMetrics // interned instruments; zero value when Config.Obs is nil

	// persist is the durability subsystem (nil for in-memory stores).
	persist *persister

	appends       atomic.Uint64
	solves        atomic.Uint64
	hits          atomic.Uint64
	misses        atomic.Uint64
	reannotations atomic.Uint64
	activations   atomic.Uint64
	indexMerges   atomic.Uint64
	indexRebuilds atomic.Uint64
	warmHits      atomic.Uint64
	warmFallbacks atomic.Uint64

	// testSolveHook, when set, runs after a summary solve completes
	// but before the result is cached. Tests use it to interleave a
	// Delete with an in-flight solve deterministically.
	testSolveHook func(id string)
	// testAnnotateHook, when set, runs in itemAt between the off-lock
	// re-annotation and the optimistic publish. Tests use it to race an
	// AppendReviews against the publish and force the retry branch.
	testAnnotateHook func(id string)
}

// entry is one item's state. The *model.Item is treated as immutable:
// AppendReviews publishes a fresh Item value, so a summary solve
// working off an old snapshot never races an append.
type entry struct {
	item *model.Item
	// reviews is the array item.Reviews lives in, at its full capacity.
	// An append writes the new reviews after item.Reviews's length,
	// growing the array as append does when it is full, and publishes a
	// fresh Item over a length-capped view of it (publish): no slot a
	// reader can see is ever written, and a caller appending to a
	// returned Item.Reviews gets a new array.
	reviews      []model.Review
	gen          uint64
	numSentences int
	numPairs     int
	createdAt    time.Time
	updatedAt    time.Time

	// raws retains the item's raw reviews so an ontology swap can
	// re-annotate the corpus lazily. Appends grow it in place like
	// reviews: a reader copies the slice header under s.mu and reads
	// only up to its own length, which no later append writes.
	raws []extract.RawReview
	// annVer is the runtime version item's annotations were produced
	// under; when it differs from the active runtime's version the item
	// is re-annotated (from raws) before the next solve. annVerMixed
	// marks a corpus whose reviews span two pipeline versions.
	annVer string

	// indexes are the per-granularity incremental coverage indexes,
	// created lazily on the first solve and advanced by AppendReviews
	// off the commit critical section. nil slots mean "rebuild lazily"
	// (recovered snapshots, replicas applying streamed ops, never
	// solved). Invalidated wherever annVer changes — the index is
	// pinned to the ontology that annotated the corpus.
	indexes [3]*coverage.Index
	// greedy holds one published greedy selection per granularity (the
	// zero value until the first greedy solve). Invalidated together
	// with indexes.
	greedy [3]greedySelection
}

// greedySelection is one published greedy solve of an item at one
// granularity (res == nil: none). Algorithm 2 reads k only to stop, so
// the greedy summary at any j ≤ len(res.Selected) is the prefix
// res.Selected[:j], at cost res.PrefixCost[j]: a greedy request for the
// same generation and runtime version renders that prefix instead of
// solving. Published results are immutable.
type greedySelection struct {
	gen      uint64 // the item generation it was solved at
	ver      string // the runtime version that annotated that generation
	n        int    // |U|, the candidate count k is clamped to
	numPairs int    // |P|, the summary's pair count
	res      *summarize.Result
}

// prefix returns the greedy summary's selection at k ≤ len(Selected),
// capacity-capped so that no caller can append into the shared array.
func (sel greedySelection) prefix(k int) *summarize.Result {
	return &summarize.Result{Selected: sel.res.Selected[:k:k], Cost: float64(sel.res.PrefixCost[k])}
}

// publish makes reviews, an array the entry owns, the corpus of a fresh
// Item with the given ID and name. Caller holds s.mu.
func (e *entry) publish(id, name string, reviews []model.Review) {
	e.reviews = reviews
	e.item = &model.Item{ID: id, Name: name, Reviews: reviews[:len(reviews):len(reviews)]}
}

// invalidateIndexes drops the entry's incremental indexes and greedy
// selections. Called (under s.mu) wherever annVer changes: a
// mixed-version append and the lazy re-annotation publish.
func (e *entry) invalidateIndexes() {
	e.indexes = [3]*coverage.Index{}
	e.greedy = [3]greedySelection{}
}

// annVerMixed marks an entry whose merged annotations span more than
// one runtime version (an append landed after a swap but before the
// lazy re-annotation). It never equals a real version, so the next
// solve always re-annotates.
const annVerMixed = "\x00mixed"

// New validates the config and builds a Store. With Config.DataDir
// set, it first recovers any previous state from disk (latest valid
// snapshot, then WAL replay) and arms the durability subsystem; call
// Close when done with a durable store.
func New(cfg Config) (*Store, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("store: Config.Runtime is required")
	}
	if cfg.Runtime.Metric.Ont == nil || cfg.Runtime.Pipeline == nil {
		return nil, errors.New("store: Config.Runtime needs a metric ontology and a pipeline")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxCacheEntries == 0 {
		cfg.MaxCacheEntries = DefaultMaxCacheEntries
	}
	if cfg.MaxCacheBytes == 0 {
		cfg.MaxCacheBytes = DefaultMaxCacheBytes
	}
	s := &Store{
		seed:    cfg.Seed,
		replica: cfg.Replica,
		items:   make(map[string]*entry),
		cache:   newLRU(cfg.MaxCacheEntries, cfg.MaxCacheBytes),
		metrics: newStoreMetrics(cfg.Obs, cfg.ObsShard),
	}
	s.rt.Store(cfg.Runtime)
	s.cache.evicted = s.metrics.cacheEvictions
	if cfg.DataDir != "" {
		if err := openPersistence(s, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ItemStats is the externally visible state of one item.
type ItemStats struct {
	ID           string    `json:"id"`
	Name         string    `json:"name,omitempty"`
	Generation   uint64    `json:"generation"`
	NumReviews   int       `json:"num_reviews"`
	NumSentences int       `json:"num_sentences"`
	NumPairs     int       `json:"num_pairs"`
	CreatedAt    time.Time `json:"created_at"`
	UpdatedAt    time.Time `json:"updated_at"`
}

func (e *entry) stats() ItemStats {
	return ItemStats{
		ID:           e.item.ID,
		Name:         e.item.Name,
		Generation:   e.gen,
		NumReviews:   len(e.item.Reviews),
		NumSentences: e.numSentences,
		NumPairs:     e.numPairs,
		CreatedAt:    e.createdAt,
		UpdatedAt:    e.updatedAt,
	}
}

// AppendReviews ingests new reviews for the item, creating it if
// needed. Only the new reviews run through the extraction pipeline —
// previously ingested reviews keep their cached annotations. The
// item's generation is bumped, implicitly invalidating all cached
// summaries of the old corpus. A non-empty name (re)names the item.
// Appending zero reviews to an existing item is a no-op on the
// generation unless it renames the item.
//
// On a durable store the raw reviews are appended to the write-ahead
// log (and, under FsyncAlways, forced to stable storage) BEFORE the
// in-memory state changes and the call returns — an acknowledged
// append survives a crash. Durable writes go through the store's
// group-commit queue (commit.go): the record is JSON-encoded outside
// any lock, staged, and a leader writer batches it with concurrent
// writes into one WAL append and one fsync — so N concurrent writers
// share a fsync instead of serializing N of them, while WAL order
// still equals apply order.
func (s *Store) AppendReviews(id, name string, reviews []extract.RawReview) (ItemStats, error) {
	if id == "" {
		return ItemStats{}, errors.New("store: item id must be non-empty")
	}
	if s.replica {
		return ItemStats{}, ErrReadOnly
	}
	// now doubles as the record timestamp and the latency-measurement
	// start, so osars_store_append_seconds covers annotation AND the
	// durable commit.
	now := time.Now()
	// The expensive part — tokenization, concept matching, sentiment —
	// runs outside any lock, touches only the new reviews, and fans out
	// across GOMAXPROCS workers (order-preserving, so the stored corpus
	// is byte-identical to sequential ingestion). The runtime is pinned
	// once: a concurrent ontology swap affects the NEXT append, and the
	// version recorded alongside the annotations (annVer) is exactly the
	// one that produced them.
	rt := s.rt.Load()
	annotated := rt.Pipeline.AnnotateReviews(reviews, 0)
	stats, applied, err := s.write(change{op: opAppend, id: id, name: name, ts: now, raws: reviews, annotated: annotated, annVer: rt.Version})
	if err != nil {
		return ItemStats{}, fmt.Errorf("store: wal append: %w", err)
	}
	if !applied {
		return stats, nil
	}
	// Index maintenance runs on the appending writer's thread after the
	// apply released s.mu — off the critical section, like annotation.
	s.updateIndexes(id, rt.Version)
	s.metrics.appendSeconds.ObserveSince(now)
	return stats, nil
}

// change is one append, delete or ontology activation: what a live
// write logs, and what a logged record decodes back to (decodeChange).
type change struct {
	op   string
	id   string
	name string
	ts   time.Time // the write's wall-clock time, logged with it
	// raws, annotated and annVer are an append's raw reviews, their
	// annotations and the runtime version that produced them.
	raws      []extract.RawReview
	annotated []model.Review
	annVer    string
	rt        *ontoreg.Runtime // the runtime an activation activates
}

// write makes a live write: on a durable store through the group
// commit (commit.go), which logs c before it applies, and in memory
// straight through applyLocked. A write that would change nothing — an
// append that adds no reviews to an existing item and does not rename
// it, or a delete of a missing item — is skipped: it is not logged, and
// applied is false. Otherwise write returns what applyLocked returned.
func (s *Store) write(c change) (stats ItemStats, applied bool, err error) {
	if s.persist != nil {
		s.mu.RLock()
		stats, skip := s.skipLocked(&c)
		s.mu.RUnlock()
		if skip {
			return stats, false, nil
		}
		// A write that races this check and turns out to change nothing
		// still applies as a no-op (applyLocked guards the generation):
		// one wasted log frame.
		return s.persist.commit(c)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if stats, skip := s.skipLocked(&c); skip {
		return stats, false, nil
	}
	stats, applied = s.applyLocked(&c)
	return stats, applied, nil
}

// skipLocked reports whether write skips c, with the item's stats for a
// skipped append. Caller holds s.mu.
func (s *Store) skipLocked(c *change) (ItemStats, bool) {
	switch c.op {
	case opAppend:
		if e, ok := s.items[c.id]; ok && len(c.annotated) == 0 && (c.name == "" || c.name == e.item.Name) {
			return e.stats(), true
		}
	case opDelete:
		_, ok := s.items[c.id]
		return ItemStats{}, !ok
	}
	return ItemStats{}, false
}

// updateIndexes advances the item's live incremental coverage indexes
// over the just-appended reviews, outside every store lock. Only
// indexes that already exist are advanced (creation stays lazy at
// solve time, so never-summarized items pay nothing); an entry whose
// annotations no longer match ver (a racing swap went mixed) is
// skipped — its indexes were invalidated with it.
func (s *Store) updateIndexes(id, ver string) {
	s.mu.RLock()
	e, ok := s.items[id]
	var item *model.Item
	var idxs [3]*coverage.Index
	if ok && e.annVer == ver {
		item = e.item
		idxs = e.indexes
	}
	s.mu.RUnlock()
	if item == nil {
		return
	}
	advanced := false
	start := time.Now()
	for _, idx := range idxs {
		if idx != nil {
			idx.Advance(item)
			advanced = true
		}
	}
	if advanced {
		s.indexMerges.Add(1)
		s.metrics.indexMergeSeconds.ObserveSince(start)
	}
}

// applyLocked applies c to the corpus under s.mu. It is the only code
// that does: live writes, the group commit, WAL replay and replicas all
// apply through it, so a replayed or shipped record changes the store
// exactly as the live write that logged it did (timestamps come from
// c, generations from the store's counter). It returns the item's
// stats after an append, and applied false for a delete whose item is
// gone.
func (s *Store) applyLocked(c *change) (stats ItemStats, applied bool) {
	switch c.op {
	case opAppend:
		s.appends.Add(1)
		e, existed := s.items[c.id]
		if !existed {
			s.nextGen++
			e = &entry{
				item:      &model.Item{ID: c.id, Name: c.name},
				gen:       s.nextGen,
				annVer:    c.annVer,
				createdAt: c.ts,
				updatedAt: c.ts,
			}
			s.items[c.id] = e
		}
		// Appending nothing to an existing item without a rename leaves
		// its generation as it is.
		renamed := c.name != "" && c.name != e.item.Name
		if existed && len(c.annotated) == 0 && !renamed {
			return e.stats(), true
		}
		if existed || len(c.annotated) > 0 {
			name := c.name
			if !renamed {
				name = e.item.Name
			}
			if e.reviews == nil {
				// A corpus that went through here is never nil, so a
				// snapshot writes it as [] rather than null.
				e.reviews = make([]model.Review, 0, len(c.annotated))
			}
			// O(new reviews): the old ones stay where they are.
			e.publish(c.id, name, append(e.reviews, c.annotated...))
			if existed {
				s.nextGen++
				e.gen = s.nextGen
			}
			sentences, pairs := countAnnotations(c.annotated)
			e.numSentences += sentences
			e.numPairs += pairs
			e.updatedAt = c.ts
		}
		e.raws = append(e.raws, c.raws...)
		if existed && e.annVer != c.annVer {
			// The corpus now mixes annotations from two pipeline
			// versions; the sentinel forces a re-annotation before the
			// next solve. The incremental indexes were built over the old
			// annotations, so they go with it — exactly like the annVer
			// invalidation.
			e.annVer = annVerMixed
			e.invalidateIndexes()
		}
		return e.stats(), true
	case opDelete:
		if _, ok := s.items[c.id]; !ok {
			return ItemStats{}, false
		}
		delete(s.items, c.id)
		s.cache.PurgeItem(c.id)
	case opActivate:
		s.rt.Store(c.rt)
		s.activations.Add(1)
		s.metrics.activations.Inc()
	}
	return ItemStats{}, true
}

// reconstructRaws rebuilds raw reviews from annotated ones by joining
// sentence texts. entryFromSnap uses it for items restored from
// snapshots that predate raw-review retention; the reconstruction is
// faithful enough to re-annotate (the pipeline re-splits on sentence
// boundaries).
func reconstructRaws(annotated []model.Review) []extract.RawReview {
	raws := make([]extract.RawReview, len(annotated))
	for i := range annotated {
		var text string
		for si := range annotated[i].Sentences {
			if si > 0 {
				text += " "
			}
			text += annotated[i].Sentences[si].Text
		}
		raws[i] = extract.RawReview{ID: annotated[i].ID, Text: text, Rating: annotated[i].Rating}
	}
	return raws
}

// countAnnotations tallies sentences and pairs across reviews.
func countAnnotations(reviews []model.Review) (sentences, pairs int) {
	for i := range reviews {
		sentences += len(reviews[i].Sentences)
		for si := range reviews[i].Sentences {
			pairs += len(reviews[i].Sentences[si].Pairs)
		}
	}
	return sentences, pairs
}

// Item returns the current annotated snapshot and generation of an
// item. The returned Item is shared and must be treated as read-only.
func (s *Store) Item(id string) (*model.Item, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.items[id]
	if !ok {
		return nil, 0, false
	}
	return e.item, e.gen, true
}

// ItemStats returns the stats of one item.
func (s *Store) ItemStats(id string) (ItemStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.items[id]
	if !ok {
		return ItemStats{}, false
	}
	return e.stats(), true
}

// List returns the stats of every item, sorted by ID.
func (s *Store) List() []ItemStats {
	s.mu.RLock()
	out := make([]ItemStats, 0, len(s.items))
	for _, e := range s.items {
		out = append(out, e.stats())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of items.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

// Delete removes an item and purges its cached summaries, reporting
// whether it existed. The cache purge happens in the SAME critical
// section as the map removal — there is no window in which the item is
// gone but its summaries are still cached (and on a durable store the
// delete is logged before it is applied, so a recovered store can
// never serve a summary for a deleted item). A later re-creation under
// the same ID gets a fresh generation, so stale cache entries can
// never resurface either.
func (s *Store) Delete(id string) (bool, error) {
	if s.replica {
		return false, ErrReadOnly
	}
	_, existed, err := s.write(change{op: opDelete, id: id, ts: time.Now()})
	if err != nil {
		return false, fmt.Errorf("store: wal delete: %w", err)
	}
	return existed, nil
}

// cacheKey identifies one solved summary: the item at an exact corpus
// generation under exact solver parameters and an exact ontology
// version. The version component is the swap-coherence invariant: a
// summary solved under one ontology can never answer a request pinned
// to another, because their keys differ.
type cacheKey struct {
	id  string
	gen uint64
	ver string
	k   int
	g   model.Granularity
	m   Method
}

// Summary is a computed review summary: a stored item's (possibly
// cached) summary, or a stateless one from Solve with Generation 0.
type Summary struct {
	ItemID      string            `json:"item_id"`
	Generation  uint64            `json:"generation"`
	K           int               `json:"k"` // effective k after clamping
	Granularity model.Granularity `json:"granularity"`
	Method      Method            `json:"method"`
	// Cost is the Definition-2 coverage cost of the selection.
	Cost float64 `json:"cost"`
	// NumPairs is |P|, the item's pair count.
	NumPairs int `json:"num_pairs"`
	// Indices are the selected candidate indices: pair indices into
	// Item.Pairs() for Pairs, flattened sentence indices for Sentences,
	// review indices for Reviews.
	Indices []int `json:"indices,omitempty"`
	// Pairs, Sentences and ReviewIDs are the selected units at the
	// summary's granularity (the other two are empty), in selection
	// order.
	Pairs []model.Pair `json:"pairs,omitempty"`
	// Concepts are the human-readable concept names of Pairs, captured
	// at solve time under the solving ontology — renderers never need to
	// resolve ConceptIDs against a possibly different active ontology.
	Concepts  []string `json:"concepts,omitempty"`
	Sentences []string `json:"sentences,omitempty"`
	ReviewIDs []string `json:"review_ids,omitempty"`
	// Ontology and OntologyVersion identify the ontology runtime the
	// summary was solved under ("config" for unversioned runtimes).
	Ontology        string `json:"ontology,omitempty"`
	OntologyVersion string `json:"ontology_version,omitempty"`

	// body is a response body rendered from the fields above, kept by
	// KeepBody so that later responses copy it.
	body atomic.Pointer[[]byte]
}

// Body returns the body kept by KeepBody, or nil before one is kept.
func (s *Summary) Body() []byte {
	if b := s.body.Load(); b != nil {
		return *b
	}
	return nil
}

// KeepBody keeps b, a rendering of the summary's fields, unless a body
// is kept already, and returns the kept body. Renderings of one Summary
// are equal, so the first to be kept wins. b must not be modified once
// kept; the cache counts a kept body in the summary's size.
func (s *Summary) KeepBody(b []byte) []byte {
	if s.body.CompareAndSwap(nil, &b) {
		return b
	}
	return *s.body.Load()
}

// Summary returns the k-unit summary of the item's current corpus.
// cached reports whether the summary cache answered the call: an LRU
// hit, or a concurrent identical request joined via singleflight. A
// miss is a solve, also when a greedy miss renders a prefix of the
// item's stored selection. The returned Summary is shared with the
// cache and must be treated as read-only.
func (s *Store) Summary(id string, k int, g model.Granularity, m Method) (sum *Summary, cached bool, err error) {
	if err := checkRequest(k, g, m); err != nil {
		return nil, false, err
	}

	// Pin the active runtime for the whole request: a concurrent swap
	// redirects future requests, this one solves (and caches) under the
	// version it loaded.
	rt := s.rt.Load()
	item, gen, ok, err := s.itemAt(rt, id)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, ErrNotFound
	}

	key := cacheKey{id: id, gen: gen, ver: rt.Version, k: k, g: g, m: m}
	if sum, ok := s.cache.Get(key); ok {
		s.hits.Add(1)
		s.metrics.cacheHits.Inc()
		return sum, true, nil
	}
	s.misses.Add(1)
	s.metrics.cacheMisses.Inc()
	return s.group.Do(key, func() (*Summary, error) {
		// Double-check: a flight that completed between our cache miss
		// and joining the group may have populated the cache already.
		if sum, ok := s.cache.Get(key); ok {
			return sum, nil
		}
		sum, err := s.solve(rt, item, gen, k, g, m)
		if err == nil {
			if s.testSolveHook != nil {
				s.testSolveHook(id)
			}
			s.cache.Add(key, sum)
			// The solve ran off a snapshot taken before any lock was
			// released: if the item was deleted while we were solving,
			// Delete's purge may have run before our Add. Re-check and
			// purge so a deleted item never leaves summaries behind in
			// the cache.
			s.mu.RLock()
			_, alive := s.items[id]
			s.mu.RUnlock()
			if !alive {
				s.cache.PurgeItem(id)
			}
		}
		return sum, err
	})
}

// itemAt returns the item's annotated snapshot under the given
// runtime, lazily re-annotating from the retained raw reviews when the
// stored annotations were produced under a different ontology version.
// Re-annotation runs outside the store lock on a consistent snapshot
// and is published with an optimistic re-check: if the entry changed
// underneath (append, delete, a concurrent re-annotation winning the
// race), the loop retries. Publishing does NOT bump the generation —
// the corpus content is unchanged, only its annotations — so summaries
// cached under other runtime versions stay addressable.
func (s *Store) itemAt(rt *ontoreg.Runtime, id string) (*model.Item, uint64, bool, error) {
	for {
		s.mu.RLock()
		e, ok := s.items[id]
		if !ok {
			s.mu.RUnlock()
			return nil, 0, false, nil
		}
		if e.annVer == rt.Version {
			item, gen := e.item, e.gen
			s.mu.RUnlock()
			return item, gen, true, nil
		}
		snap, gen := e.item, e.gen
		raws := e.raws
		s.mu.RUnlock()

		start := time.Now()
		annotated := rt.Pipeline.AnnotateReviews(raws, 0)
		if h := s.testAnnotateHook; h != nil {
			h(id)
		}

		s.mu.Lock()
		e2, ok := s.items[id]
		if !ok {
			s.mu.Unlock()
			return nil, 0, false, nil
		}
		if e2 != e || e2.gen != gen || e2.item != snap {
			// The corpus moved while we were annotating; retry against
			// the new snapshot.
			s.mu.Unlock()
			continue
		}
		if e2.annVer == rt.Version {
			// A concurrent re-annotation for the same version won; use it.
			item := e2.item
			s.mu.Unlock()
			return item, gen, true, nil
		}
		e2.publish(snap.ID, snap.Name, annotated)
		ni := e2.item
		e2.annVer = rt.Version
		// The old indexes cover annotations from the previous pipeline
		// version; drop them so the next solve rebuilds over ni.
		e2.invalidateIndexes()
		e2.numSentences, e2.numPairs = countAnnotations(annotated)
		s.mu.Unlock()
		s.reannotations.Add(1)
		s.metrics.reannotations.Inc()
		s.metrics.reannSeconds.ObserveSince(start)
		return ni, gen, true, nil
	}
}

// graphFor acquires the coverage graph for a solve: the item's
// incremental index when one is usable (creating it lazily on first
// solve — also the path recovered snapshots and replicas take, since
// indexes are never persisted), a cold Build otherwise. The returned
// graph is immutable either way.
func (s *Store) graphFor(rt *ontoreg.Runtime, item *model.Item, g model.Granularity) *coverage.Graph {
	s.mu.RLock()
	e, ok := s.items[item.ID]
	usable := ok && e.annVer == rt.Version
	var idx *coverage.Index
	if usable {
		idx = e.indexes[g]
	}
	s.mu.RUnlock()
	if !usable {
		// Deleted underneath us, or annotations in flux (mixed/stale
		// version): serve this solve cold rather than index a snapshot
		// the entry no longer agrees with.
		return coverage.Build(rt.Metric, item, g)
	}
	if idx == nil {
		// Lazy rebuild, off-lock (it's a full O(corpus) pass).
		idx = coverage.NewIndex(rt.Metric, g)
		idx.Advance(item)
		s.indexRebuilds.Add(1)
		s.metrics.indexRebuilds.Inc()
		s.mu.Lock()
		if e2, ok := s.items[item.ID]; ok && e2 == e && e2.annVer == rt.Version && e2.indexes[g] == nil {
			e2.indexes[g] = idx
		}
		s.mu.Unlock()
	}
	if graph := idx.Graph(item); graph != nil {
		return graph
	}
	// The shared index merged past our pinned snapshot (a concurrent
	// append won); this stale solve builds cold.
	return coverage.Build(rt.Metric, item, g)
}

// storedGreedy returns the item's published greedy selection at
// granularity g if runtime version ver solved it, or the zero value.
func (s *Store) storedGreedy(id, ver string, g model.Granularity) greedySelection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.items[id]; ok && e.greedy[g].res != nil && e.greedy[g].ver == ver {
		return e.greedy[g]
	}
	return greedySelection{}
}

// publishGreedy stores sel as the item's greedy selection at g when
// the entry's annotations still match it and the stored selection is
// absent, of an older generation or another version, or of the same
// generation and shorter.
func (s *Store) publishGreedy(id string, g model.Granularity, sel greedySelection) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[id]
	if !ok || e.annVer != sel.ver {
		return
	}
	old := e.greedy[g]
	if old.res == nil || old.gen < sel.gen || old.ver != sel.ver ||
		(old.gen == sel.gen && len(old.res.Selected) < len(sel.res.Selected)) {
		e.greedy[g] = sel
	}
}

// solve runs the coverage solve on an immutable item snapshot under
// the pinned runtime. Graph acquisition (cold build or index freeze)
// and the selection algorithm are timed separately:
// osars_store_graph_build_seconds vs osars_store_solve_seconds. A
// greedy request whose generation was already solved at an equal or
// larger k renders the stored selection's prefix without acquiring a
// graph.
func (s *Store) solve(rt *ontoreg.Runtime, item *model.Item, gen uint64, k int, g model.Granularity, m Method) (*Summary, error) {
	s.solves.Add(1)
	var stored greedySelection
	if m == MethodGreedy {
		stored = s.storedGreedy(item.ID, rt.Version, g)
		if stored.res != nil && stored.gen == gen && len(stored.res.Selected) >= min(k, stored.n) {
			start := time.Now()
			k = min(k, stored.n)
			sum := newSummary(rt, item, gen, k, g, m, stored.numPairs, stored.prefix(k))
			s.metrics.solveSeconds[m].ObserveSince(start)
			return sum, nil
		}
	}
	buildStart := time.Now()
	graph := s.graphFor(rt, item, g)
	s.metrics.graphSeconds.ObserveSince(buildStart)
	k = min(k, graph.NumCandidates)
	solveStart := time.Now()
	// Greedy is compared with the stored selection at this granularity;
	// the result is identical either way.
	res, hit, err := selectUnits(graph, k, m, s.seed, stored.res)
	if err != nil {
		return nil, err
	}
	// The graph's targets are P's distinct pairs; their weights sum to |P|.
	numPairs := 0
	for _, w := range graph.Weight {
		numPairs += int(w)
	}
	if m == MethodGreedy {
		if hit {
			s.warmHits.Add(1)
			s.metrics.indexWarmHits.Inc()
		} else {
			s.warmFallbacks.Add(1)
			s.metrics.indexWarmFallbacks.Inc()
		}
		s.publishGreedy(item.ID, g, greedySelection{gen: gen, ver: rt.Version, n: graph.NumCandidates, numPairs: numPairs, res: res})
	}
	sum := newSummary(rt, item, gen, k, g, m, numPairs, res)
	s.metrics.solveSeconds[m].ObserveSince(solveStart)
	return sum, nil
}

// Solve is the stateless summary path: the request checks of
// Store.Summary, then a cold coverage.Build of the item under rt's
// metric, the store's selection (randomized rounding seeded by seed)
// and its renderer. The item must have been annotated under rt, and
// the summary carries generation 0.
func Solve(rt *ontoreg.Runtime, item *model.Item, k int, g model.Granularity, m Method, seed int64) (*Summary, error) {
	if err := checkRequest(k, g, m); err != nil {
		return nil, err
	}
	graph := coverage.Build(rt.Metric, item, g)
	k = min(k, graph.NumCandidates)
	res, _, err := selectUnits(graph, k, m, seed, nil)
	if err != nil {
		return nil, err
	}
	return newSummary(rt, item, 0, k, g, m, item.NumPairs(), res), nil
}

// checkRequest validates a summary request's k, granularity and
// method.
func checkRequest(k int, g model.Granularity, m Method) error {
	if k < 0 {
		return fmt.Errorf("store: k must be nonnegative, got %d", k)
	}
	switch g {
	case model.GranularityPairs, model.GranularitySentences, model.GranularityReviews:
	default:
		return fmt.Errorf("store: unknown granularity %v", g)
	}
	switch m {
	case MethodGreedy, MethodRR, MethodILP, MethodLocalSearch:
	default:
		return fmt.Errorf("store: unknown method %v", m)
	}
	return nil
}

// selectUnits runs method m's selection of k candidates on graph: the
// one call site of the selection algorithms for summary requests. m
// has passed checkRequest. prev is a previous greedy selection to
// compare with (nil for none) and hit reports whether the greedy's
// selection is a prefix of it; seed seeds randomized rounding.
func selectUnits(graph *coverage.Graph, k int, m Method, seed int64, prev *summarize.Result) (res *summarize.Result, hit bool, err error) {
	switch m {
	case MethodGreedy:
		res, hit = summarize.GreedyWarm(graph, k, prev)
	case MethodRR:
		res, err = summarize.RandomizedRounding(graph, k, rand.New(rand.NewSource(seed)), nil)
	case MethodILP:
		res, err = summarize.ILP(graph, k, nil)
	case MethodLocalSearch:
		res = summarize.LocalSearch(graph, k, nil)
	}
	return res, hit, err
}

// newSummary renders a selection over the item snapshot into a
// Summary; k is the effective (clamped) k and numPairs |P|, the item's
// pair count.
func newSummary(rt *ontoreg.Runtime, item *model.Item, gen uint64, k int, g model.Granularity, m Method, numPairs int, res *summarize.Result) *Summary {
	sum := &Summary{
		ItemID:          item.ID,
		Generation:      gen,
		K:               k,
		Granularity:     g,
		Method:          m,
		Cost:            res.Cost,
		NumPairs:        numPairs,
		Indices:         res.Selected,
		Ontology:        rt.Name,
		OntologyVersion: rt.Version,
	}
	n := len(res.Selected)
	if n == 0 {
		return sum
	}
	switch g {
	case model.GranularityPairs:
		sum.Pairs = make([]model.Pair, n)
		sum.Concepts = make([]string, n)
		item.WalkSelected(res.Selected, true, func(i int, s *model.Sentence, off int) {
			sum.Pairs[i] = s.Pairs[off]
			sum.Concepts[i] = rt.Metric.Ont.Name(s.Pairs[off].Concept)
		})
	case model.GranularitySentences:
		sum.Sentences = make([]string, n)
		item.WalkSelected(res.Selected, false, func(i int, s *model.Sentence, _ int) {
			sum.Sentences[i] = s.Text
		})
	case model.GranularityReviews:
		sum.ReviewIDs = make([]string, n)
		for i, idx := range res.Selected {
			sum.ReviewIDs[i] = item.Reviews[idx].ID
		}
	}
	return sum
}

// Stats is a point-in-time snapshot of store-level counters.
type Stats struct {
	Items          int    `json:"items"`
	Appends        uint64 `json:"appends"`
	Solves         uint64 `json:"solves"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`

	// Ontology lifecycle state: the active runtime's identity, how many
	// items still carry annotations from a different runtime version
	// (they re-annotate lazily on their next summarize), and the running
	// re-annotation / activation counters.
	ActiveOntology        string `json:"active_ontology,omitempty"`
	ActiveOntologyVersion string `json:"active_ontology_version,omitempty"`
	StaleItems            int    `json:"stale_items,omitempty"`
	Reannotations         uint64 `json:"reannotations,omitempty"`
	OntologyActivations   uint64 `json:"ontology_activations,omitempty"`

	// Incremental coverage index counters: append-path merges, lazy
	// solve-time rebuilds (first solve, recovered snapshots, replicas),
	// and the greedy runs split by whether their selection is a prefix
	// of the stored one (a rendered prefix is neither).
	IndexMerges        uint64 `json:"index_merges,omitempty"`
	IndexRebuilds      uint64 `json:"index_rebuilds,omitempty"`
	IndexWarmHits      uint64 `json:"index_warm_hits,omitempty"`
	IndexWarmFallbacks uint64 `json:"index_warm_fallbacks,omitempty"`

	// Durability counters (zero for in-memory stores).
	Durable          bool   `json:"durable,omitempty"`
	WALLastSeq       uint64 `json:"wal_last_seq,omitempty"`
	WALSegments      int    `json:"wal_segments,omitempty"`
	SnapshotsWritten uint64 `json:"snapshots_written,omitempty"`

	// Sharding breakdown, set only by the sharded wrapper
	// (internal/shard): Shards is the partition count and PerShard the
	// per-partition counters (indexed by shard), so skewed placement,
	// hot shards and per-shard cache behavior are observable. For the
	// aggregate view, WALLastSeq is the max across shards (each shard
	// numbers its own WAL) and the other counters are sums.
	Shards   int     `json:"shards,omitempty"`
	PerShard []Stats `json:"per_shard,omitempty"`
}

// Stats returns the current counters. Because the counters are
// independent atomics, the snapshot is approximate under concurrency.
func (s *Store) Stats() Stats {
	rt := s.rt.Load()
	s.mu.RLock()
	items := len(s.items)
	stale := 0
	for _, e := range s.items {
		if e.annVer != rt.Version {
			stale++
		}
	}
	s.mu.RUnlock()
	st := Stats{
		Items:                 items,
		Appends:               s.appends.Load(),
		Solves:                s.solves.Load(),
		CacheHits:             s.hits.Load(),
		CacheMisses:           s.misses.Load(),
		CacheEntries:          s.cache.Len(),
		CacheBytes:            s.cache.Bytes(),
		CacheEvictions:        s.cache.Evictions(),
		ActiveOntology:        rt.Name,
		ActiveOntologyVersion: rt.Version,
		StaleItems:            stale,
		Reannotations:         s.reannotations.Load(),
		OntologyActivations:   s.activations.Load(),
		IndexMerges:           s.indexMerges.Load(),
		IndexRebuilds:         s.indexRebuilds.Load(),
		IndexWarmHits:         s.warmHits.Load(),
		IndexWarmFallbacks:    s.warmFallbacks.Load(),
	}
	if p := s.persist; p != nil {
		st.Durable = true
		st.WALLastSeq = p.log.NextSeq() - 1
		st.WALSegments = p.log.Segments()
		st.SnapshotsWritten = p.snapshotsWritten.Load()
	}
	return st
}

// ActiveRuntime returns the store's active ontology runtime — the one
// recovered from the WAL on a durable store and advanced by
// replication on a replica. Never nil.
func (s *Store) ActiveRuntime() *ontoreg.Runtime {
	return s.rt.Load()
}

// ActivateOntology hot-swaps the active ontology runtime. Requests
// in flight finish on the runtime they pinned; new requests see rt.
// Items annotated under the previous version re-annotate lazily on
// their next summarize (the cache key's version component already
// isolates their old summaries). Activating the already-active version
// is an idempotent no-op. On a durable store the activation is logged
// to the WAL through the group-commit path before it applies, so it
// survives restart and ships to replicas; that requires a runtime with
// a serializable entry payload (registry-born, not ConfigRuntime).
// Replicas reject local activation with ErrReadOnly — the active
// version reaches them through the replicated WAL stream.
func (s *Store) ActivateOntology(rt *ontoreg.Runtime) error {
	if rt == nil || rt.Metric.Ont == nil || rt.Pipeline == nil {
		return errors.New("store: ActivateOntology needs a runtime with a metric ontology and a pipeline")
	}
	if s.replica {
		return ErrReadOnly
	}
	if cur := s.rt.Load(); cur.Version == rt.Version && cur.Name == rt.Name {
		return nil
	}
	if s.persist != nil && len(rt.Payload) == 0 {
		return errors.New("store: durable activation requires a registry entry (runtime has no payload)")
	}
	// The record embeds the runtime's entry payload, so replay and
	// replicas rebuild the exact runtime from the log alone. An append
	// annotated under the old runtime but applied after the swap marks
	// its item mixed (it re-annotates lazily).
	if _, _, err := s.write(change{op: opActivate, ts: time.Now(), rt: rt}); err != nil {
		return fmt.Errorf("store: wal activate: %w", err)
	}
	return nil
}
