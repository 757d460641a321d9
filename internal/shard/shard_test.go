package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/store"
)

func storeTemplate() store.Config {
	ont := dataset.CellPhoneOntology()
	return store.Config{Runtime: ontoreg.ConfigRuntime(
		model.Metric{Ont: ont, Epsilon: 0.5},
		extract.NewPipeline(extract.NewMatcher(ont), nil),
	)}
}

func newSharded(t *testing.T, shards int, dataDir string) *ShardedStore {
	t.Helper()
	cfg := Config{Shards: shards, Store: storeTemplate()}
	cfg.Store.DataDir = dataDir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var phoneReviews = []extract.RawReview{
	{ID: "r1", Text: "The screen is excellent. The battery is awful.", Rating: 0.2},
	{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible.", Rating: 0.0},
	{ID: "r3", Text: "Great camera and a decent price.", Rating: 0.8},
	{ID: "r4", Text: "The speaker is too quiet but the design is gorgeous.", Rating: 0.4},
}

// genIDs builds n synthetic item IDs in realistic shapes (slugs,
// numeric suffixes, uuid-ish hex).
func genIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		switch i % 3 {
		case 0:
			ids[i] = fmt.Sprintf("item-%d", i)
		case 1:
			ids[i] = fmt.Sprintf("sku/%04x/%04x", i*2654435761%65536, i)
		default:
			ids[i] = fmt.Sprintf("doctor-%c%c-%06d", 'a'+i%26, 'a'+(i/26)%26, i)
		}
	}
	return ids
}

// TestHashDistribution pins routing fairness: on 10k generated IDs
// every shard's load must be within ±20% of uniform at 4 and at 16
// shards.
func TestHashDistribution(t *testing.T) {
	ids := genIDs(10000)
	for _, shards := range []int{4, 16} {
		s := newSharded(t, shards, "")
		counts := make([]int, shards)
		for _, id := range ids {
			counts[s.ShardFor(id)]++
		}
		want := float64(len(ids)) / float64(shards)
		for i, c := range counts {
			if dev := float64(c)/want - 1; dev < -0.20 || dev > 0.20 {
				t.Errorf("%d shards: shard %d holds %d items (%.1f%% off uniform %0.f)",
					shards, i, c, dev*100, want)
			}
		}
	}
}

// TestRoutingDeterministic pins that placement is a pure function of
// (seed, id, shard count): two independent instances agree on every
// assignment — which is what makes routing stable across process
// restarts — and a different seed produces a different placement.
func TestRoutingDeterministic(t *testing.T) {
	ids := genIDs(2000)
	a := newSharded(t, 8, "")
	b := newSharded(t, 8, "")
	moved := 0
	for _, id := range ids {
		if a.ShardFor(id) != b.ShardFor(id) {
			t.Fatalf("instances with the same seed disagree on %q", id)
		}
		if a.ShardFor(id) != jump(fnv1a(12345, id), 8) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the hash seed moved no items; seed is not wired into the hash")
	}
}

// TestJumpConsistency pins the consistent-hash property: growing the
// shard count from N to N+1 relocates only ~1/(N+1) of the keys (a
// modulo hash would relocate ~N/(N+1)).
func TestJumpConsistency(t *testing.T) {
	ids := genIDs(10000)
	s8 := newSharded(t, 8, "")
	s9 := newSharded(t, 9, "")
	moved := 0
	for _, id := range ids {
		if s8.ShardFor(id) != s9.ShardFor(id) {
			moved++
		}
	}
	frac := float64(moved) / float64(len(ids))
	if frac > 0.2 { // ideal is 1/9 ≈ 0.111
		t.Fatalf("8→9 shards moved %.1f%% of keys; jump hash should move ~11%%", frac*100)
	}
}

// normalize zeros the bookkeeping that legitimately differs between
// two separate ingests of the same corpus: wall-clock timestamps and
// shard-local generation tokens.
func normalize(items []store.ItemStats) []store.ItemStats {
	out := make([]store.ItemStats, len(items))
	copy(out, items)
	for i := range out {
		out[i].Generation = 0
		out[i].CreatedAt = time.Time{}
		out[i].UpdatedAt = time.Time{}
	}
	return out
}

func listJSON(t *testing.T, items []store.ItemStats) string {
	t.Helper()
	data, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestListMatchesUnsharded ingests the same corpus into a 7-shard and
// an unsharded store and pins that List output matches: identical up
// to wall-clock timestamps and generation tokens, identical ordering
// (sorted by ID), and byte-identical across repeated calls on the
// sharded store (the parallel fan-out merge must be deterministic).
func TestListMatchesUnsharded(t *testing.T) {
	sharded := newSharded(t, 7, "")
	flat, err := store.New(storeTemplate())
	if err != nil {
		t.Fatal(err)
	}
	ids := genIDs(120)
	for i, id := range ids {
		revs := phoneReviews[i%3 : i%3+1]
		if _, err := sharded.AppendReviews(id, "Item "+id, revs); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.AppendReviews(id, "Item "+id, revs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sharded.Len(), flat.Len(); got != want {
		t.Fatalf("Len: sharded %d, unsharded %d", got, want)
	}
	got := listJSON(t, normalize(sharded.List()))
	want := listJSON(t, normalize(flat.List()))
	if got != want {
		t.Fatalf("sharded List diverged from unsharded:\nflat:    %s\nsharded: %s", want, got)
	}
	// Determinism: repeated calls are byte-identical (including the
	// fields normalize zeroes — they are stable within one store).
	first := listJSON(t, sharded.List())
	for i := 0; i < 5; i++ {
		if again := listJSON(t, sharded.List()); again != first {
			t.Fatalf("List call %d diverged from the first call", i)
		}
	}
	// Each item is reachable through the routed single-item path too.
	for _, id := range ids {
		if _, ok := sharded.ItemStats(id); !ok {
			t.Fatalf("item %q not reachable after ingest", id)
		}
	}
}

// TestSummaryMatchesUnsharded pins that a sharded store's summaries
// are identical to the unsharded store's over the same corpus.
func TestSummaryMatchesUnsharded(t *testing.T) {
	sharded := newSharded(t, 5, "")
	flat, err := store.New(storeTemplate())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("p%d", i)
		sharded.AppendReviews(id, "", phoneReviews)
		flat.AppendReviews(id, "", phoneReviews)
	}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("p%d", i)
		for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences} {
			got, _, err := sharded.Summary(id, 2, g, store.MethodGreedy)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := flat.Summary(id, 2, g, store.MethodGreedy)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || fmt.Sprint(got.Indices) != fmt.Sprint(want.Indices) {
				t.Fatalf("%s/%v: sharded summary %v (cost %v) != unsharded %v (cost %v)",
					id, g, got.Indices, got.Cost, want.Indices, want.Cost)
			}
		}
	}
	// Cache behavior is shard-local but must still work end to end.
	if _, cached, _ := sharded.Summary("p3", 2, model.GranularityPairs, store.MethodGreedy); !cached {
		t.Fatal("second identical read was not cached")
	}
}

// TestDurableShardedRestart is the library-level crash-recovery test:
// ingest + delete against a durable 4-shard store, abandon it without
// Close (FsyncAlways has already made every ack durable), reopen, and
// the full List — including generations and timestamps, which are
// logged — must be byte-identical; summaries must match too.
func TestDurableShardedRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newSharded(t, 4, dir)
	ids := genIDs(40)
	for i, id := range ids {
		if _, err := s1.AppendReviews(id, "", phoneReviews[:1+i%3]); err != nil {
			t.Fatal(err)
		}
	}
	// Second wave: appends bump generations, then delete a few items.
	for _, id := range ids[:10] {
		if _, err := s1.AppendReviews(id, "", phoneReviews[3:]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[30:34] {
		if ok, err := s1.Delete(id); !ok || err != nil {
			t.Fatalf("delete %s = (%v, %v)", id, ok, err)
		}
	}
	want := listJSON(t, s1.List())
	wantSum, _, err := s1.Summary(ids[0], 2, model.GranularitySentences, store.MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	// Hard stop: no Close. FsyncAlways means the WAL already holds
	// every acknowledged record.

	s2 := newSharded(t, 4, dir)
	defer s2.Close()
	rec, ok := s2.Recovery()
	if !ok || rec.ReplayedRecords == 0 || rec.Items != len(ids)-4 {
		t.Fatalf("recovery = %+v ok=%v", rec, ok)
	}
	if got := listJSON(t, s2.List()); got != want {
		t.Fatalf("List diverged after restart:\npre:  %s\npost: %s", want, got)
	}
	gotSum, _, err := s2.Summary(ids[0], 2, model.GranularitySentences, store.MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum.Cost != wantSum.Cost || fmt.Sprint(gotSum.Indices) != fmt.Sprint(wantSum.Indices) {
		t.Fatalf("summary diverged after restart: %+v vs %+v", gotSum, wantSum)
	}
	for _, id := range ids[30:34] {
		if _, ok := s2.ItemStats(id); ok {
			t.Fatalf("deleted item %s resurrected by restart", id)
		}
	}
}

// TestLayoutGuards pins the durable-layout safety rails: a sharded
// data dir cannot be reopened with a different shard count or under a
// manifest naming another hash seed, and a flat (one-shard) data dir is
// refused at more than one shard.
func TestLayoutGuards(t *testing.T) {
	dir := t.TempDir()
	s := newSharded(t, 4, dir)
	if _, err := s.AppendReviews("p1", "", phoneReviews[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Shards: 8, Store: storeTemplate()}
	cfg.Store.DataDir = dir
	if _, err := New(cfg); err == nil {
		t.Fatal("reopening a 4-shard dir with 8 shards succeeded")
	}
	// A manifest naming another seed (the manifest is input from disk).
	seedDir := t.TempDir()
	if err := writeLayout(filepath.Join(seedDir, layoutFile), layout{Schema: layoutSchema, Shards: 4, HashSeed: 999}); err != nil {
		t.Fatal(err)
	}
	cfg = Config{Shards: 4, Store: storeTemplate()}
	cfg.Store.DataDir = seedDir
	if _, err := New(cfg); err == nil {
		t.Fatal("opening under a manifest with a different hash seed succeeded")
	}
	// Same layout reopens fine.
	s2 := newSharded(t, 4, dir)
	if s2.Len() != 1 {
		t.Fatalf("reopen lost the corpus: len=%d", s2.Len())
	}
	s2.Close()

	// Flat-layout dir: a bare store's WAL at the top level.
	flatDir := t.TempDir()
	flatCfg := storeTemplate()
	flatCfg.DataDir = flatDir
	flat, err := store.New(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.AppendReviews("p1", "", phoneReviews[:1]); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = Config{Shards: 4, Store: storeTemplate()}
	cfg.Store.DataDir = flatDir
	if _, err := New(cfg); err == nil {
		t.Fatal("sharded open of a flat-layout data dir succeeded")
	}
}

// TestShardDirsLayout pins the on-disk shape: shard i's WAL lives
// under shard-%04d and the layout manifest sits at the root.
func TestShardDirsLayout(t *testing.T) {
	dir := t.TempDir()
	s := newSharded(t, 3, dir)
	for _, id := range genIDs(30) {
		if _, err := s.AppendReviews(id, "", phoneReviews[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, layoutFile)); err != nil {
		t.Fatalf("missing layout manifest: %v", err)
	}
	for i := 0; i < 3; i++ {
		entries, err := os.ReadDir(ShardDir(dir, i))
		if err != nil {
			t.Fatalf("shard %d dir: %v", i, err)
		}
		if len(entries) == 0 {
			t.Fatalf("shard %d dir is empty; want WAL/snapshot files", i)
		}
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestOneShardIsFlatLayout pins that one shard is the flat layout in
// both directions: it writes exactly the files a bare store.Store
// writes, in the data dir itself (no manifest, no shard-0000), and a
// bare store reopens them with the same corpus.
func TestOneShardIsFlatLayout(t *testing.T) {
	dir, flatDir := t.TempDir(), t.TempDir()
	s := newSharded(t, 1, dir)
	flatCfg := storeTemplate()
	flatCfg.DataDir = flatDir
	flat, err := store.New(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range genIDs(12) {
		revs := phoneReviews[i%4 : i%4+1]
		if _, err := s.AppendReviews(id, "", revs); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.AppendReviews(id, "", revs); err != nil {
			t.Fatal(err)
		}
	}
	want := listJSON(t, s.List())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(dirNames(t, dir)), fmt.Sprint(dirNames(t, flatDir)); got != want {
		t.Fatalf("one-shard data dir holds %s, a bare store's holds %s", got, want)
	}
	bareCfg := storeTemplate()
	bareCfg.DataDir = dir
	bare, err := store.New(bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if got := listJSON(t, bare.List()); got != want {
		t.Fatalf("a bare store reopened the one-shard dir as:\n%s\nwant:\n%s", got, want)
	}
}

// TestOneShardReportsLikeFlatStore pins what a one-shard store reports
// where a bare store.Store is observable: Stats with no per-shard
// breakdown, a hash seed of 0 (nothing is placed), and the store's own
// error for an empty item ID.
func TestOneShardReportsLikeFlatStore(t *testing.T) {
	s := newSharded(t, 1, "")
	flat, err := store.New(storeTemplate())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Shards != 0 || st.PerShard != nil || st.Items != 1 || st.Appends != 1 {
		t.Fatalf("one-shard Stats = %+v, want a flat store's (no shards, no per_shard)", st)
	}
	if seed := s.HashSeed(); seed != 0 {
		t.Fatalf("one-shard HashSeed = %#x, want 0", seed)
	}
	if seed := newSharded(t, 4, "").HashSeed(); seed != DefaultHashSeed {
		t.Fatalf("4-shard HashSeed = %#x, want DefaultHashSeed", seed)
	}
	_, got := s.AppendReviews("", "", phoneReviews[:1])
	_, want := flat.AppendReviews("", "", phoneReviews[:1])
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("empty id: one-shard error %v, store error %v", got, want)
	}
}

// TestLayoutRefusesManifestBesideFlatFiles builds by hand what a flat
// store opened in a 4-shard dir leaves behind: the manifest and shard
// dirs, plus an acknowledged flat WAL in the root. Opening it at either
// count would ignore one of the two, so both counts are refused with an
// error that names both.
func TestLayoutRefusesManifestBesideFlatFiles(t *testing.T) {
	dir := t.TempDir()
	s := newSharded(t, 4, dir)
	if _, err := s.AppendReviews("p1", "", phoneReviews[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flatCfg := storeTemplate()
	flatCfg.DataDir = dir
	flat, err := store.New(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.AppendReviews("p2", "", phoneReviews[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 1} {
		cfg := Config{Shards: shards, Store: storeTemplate()}
		cfg.Store.DataDir = dir
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("opening a manifest beside flat store files with %d shards succeeded", shards)
		}
		if msg := err.Error(); !strings.Contains(msg, layoutFile) || !strings.Contains(msg, "flat store files (0") {
			t.Fatalf("%d shards: error %q does not name both the manifest and the flat files", shards, msg)
		}
	}
}

// TestStatsAggregation pins that the aggregate counters are the sums
// of the per-shard breakdown and the breakdown is exposed.
func TestStatsAggregation(t *testing.T) {
	s := newSharded(t, 4, "")
	ids := genIDs(50)
	for _, id := range ids {
		if _, err := s.AppendReviews(id, "", phoneReviews[:2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:20] {
		if _, _, err := s.Summary(id, 1, model.GranularityPairs, store.MethodGreedy); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards = %d, per-shard = %d", st.Shards, len(st.PerShard))
	}
	var items int
	var appends, solves uint64
	for _, p := range st.PerShard {
		items += p.Items
		appends += p.Appends
		solves += p.Solves
	}
	if items != st.Items || items != len(ids) {
		t.Fatalf("items: agg %d, sum %d, want %d", st.Items, items, len(ids))
	}
	if appends != st.Appends || appends != uint64(len(ids)) {
		t.Fatalf("appends: agg %d, sum %d", st.Appends, appends)
	}
	if solves != st.Solves || solves != 20 {
		t.Fatalf("solves: agg %d, sum %d, want 20", st.Solves, solves)
	}
}

// TestConcurrentMixedWorkload hammers a durable sharded store with
// concurrent appends, summaries and deletes (the shard-stress CI job
// runs this under -race) and then verifies a restart still recovers a
// consistent corpus.
func TestConcurrentMixedWorkload(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Store: storeTemplate()}
	cfg.Store.DataDir = dir
	cfg.Store.Fsync = store.FsyncNever // stress throughput, not the disk
	cfg.Store.SnapshotEvery = 64       // exercise snapshot/compaction concurrently
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("item-%d", (w*perW+i)%31)
				switch i % 5 {
				case 0, 1, 2:
					if _, err := s.AppendReviews(id, "", phoneReviews[i%3:i%3+1]); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, _, err := s.Summary(id, 1, model.GranularitySentences, store.MethodGreedy); err != nil && err != store.ErrNotFound {
						t.Error(err)
						return
					}
				default:
					if _, err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := listJSON(t, s.List())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newSharded(t, 4, dir)
	defer s2.Close()
	if got := listJSON(t, s2.List()); got != want {
		t.Fatalf("restart after concurrent mixed workload diverged:\npre:  %s\npost: %s", want, got)
	}
}

// TestGroupCommitAcrossShards: concurrent FsyncAlways writers spread
// over a 4-shard store exercise one independent group-commit queue per
// shard. A hard stop (no Close) must recover every acknowledged append
// exactly — per-item review counts equal the acknowledged counts, so no
// batch lost or double-applied a record on any shard.
func TestGroupCommitAcrossShards(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Store: storeTemplate()}
	cfg.Store.DataDir = dir
	cfg.Store.Fsync = store.FsyncAlways
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 16
		items   = 13 // spread over all shards, several writers per item
	)
	var wg sync.WaitGroup
	var acked [items]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				item := (w + i*3) % items
				rv := phoneReviews[i%len(phoneReviews)]
				if _, err := s.AppendReviews(fmt.Sprintf("item-%d", item), "", []extract.RawReview{{
					ID: fmt.Sprintf("w%d-r%d", w, i), Text: rv.Text, Rating: rv.Rating,
				}}); err != nil {
					t.Error(err)
					return
				}
				atomic.AddInt64(&acked[item], 1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := listJSON(t, s.List())
	// Hard stop: FsyncAlways means every acknowledged append is already
	// on stable storage; no Close, no final snapshot.

	s2 := newSharded(t, 4, dir)
	defer s2.Close()
	if got := listJSON(t, s2.List()); got != want {
		t.Fatalf("crash recovery diverged from acknowledged state:\npre:  %s\npost: %s", want, got)
	}
	for item := 0; item < items; item++ {
		st, ok := s2.ItemStats(fmt.Sprintf("item-%d", item))
		if n := atomic.LoadInt64(&acked[item]); !ok || int64(st.NumReviews) != n {
			t.Fatalf("item-%d: recovered %d reviews (ok=%v), want %d acknowledged", item, st.NumReviews, ok, n)
		}
	}
}
