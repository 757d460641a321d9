package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
)

// durableConfig returns a durable test config rooted at dir.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.DataDir = dir
	return cfg
}

func openDurable(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// marshal renders v as JSON for byte-identical comparisons.
func marshal(t *testing.T, v interface{}) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// observe captures every externally visible, deterministic read of a
// store: the item list and one solved summary per item.
func observe(t *testing.T, s *Store) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(marshal(t, s.List()))
	for _, it := range s.List() {
		sum, _, err := s.Summary(it.ID, 3, model.GranularitySentences, MethodGreedy)
		if err != nil {
			t.Fatalf("summary %s: %v", it.ID, err)
		}
		sb.WriteString(marshal(t, sum))
	}
	return sb.String()
}

// TestDurableRestartRoundTrip is the core invariant: close a durable
// store, reopen it from the same directory, and every acknowledged
// write — items, generations, timestamps, summaries — reads back byte
// for byte.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.AppendReviews("p1", "Acme", phoneReviews[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "", phoneReviews[2:]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p2", "Bolt", phoneReviews[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p3", "Gone", phoneReviews[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p2", "Bolt v2", nil); err != nil { // rename only
		t.Fatal(err)
	}
	if deleted, err := s.Delete("p3"); !deleted || err != nil {
		t.Fatalf("delete = (%v, %v)", deleted, err)
	}
	before := observe(t, s)
	beforeStats := s.Stats()
	var maxGenBefore uint64
	for _, it := range s.List() {
		if it.Generation > maxGenBefore {
			maxGenBefore = it.Generation
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Close()
	after := observe(t, s2)
	if before != after {
		t.Fatalf("restart changed observable state:\nbefore: %s\nafter:  %s", before, after)
	}
	rec, ok := s2.Recovery()
	if !ok {
		t.Fatal("durable store reports no recovery stats")
	}
	// Close wrote a final snapshot, so reopening should restore from
	// it with nothing left to replay.
	if rec.SnapshotSeq == 0 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery = %+v, want snapshot restore with 0 replayed", rec)
	}
	if got := s2.Stats().Appends; got != beforeStats.Appends {
		t.Fatalf("appends counter after restart = %d, want %d", got, beforeStats.Appends)
	}
	// And the store stays writable: generations are minted from the
	// restored store-global counter, so they must keep increasing —
	// even past generations that belonged to deleted items.
	st, err := s2.AppendReviews("p1", "", phoneReviews[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation <= maxGenBefore {
		t.Fatalf("post-restart generation %d did not advance past %d", st.Generation, maxGenBefore)
	}
}

// TestDurableCrashWithoutClose abandons the store (no Close, no final
// snapshot) and recovers purely from the WAL.
func TestDurableCrashWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p2", "Bolt", phoneReviews[:2]); err != nil {
		t.Fatal(err)
	}
	before := observe(t, s)
	// Hard stop: no Close, no snapshot. FsyncAlways means every
	// acknowledged append is already on stable storage.

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Close()
	if after := observe(t, s2); after != before {
		t.Fatalf("crash recovery changed observable state:\nbefore: %s\nafter:  %s", before, after)
	}
	rec, _ := s2.Recovery()
	if rec.SnapshotSeq != 0 || rec.ReplayedRecords != 2 {
		t.Fatalf("recovery = %+v, want pure replay of 2 records", rec)
	}
}

// TestTornTailRecovery is the kill-at-random-offset crash test at the
// store level: acknowledge N appends, truncate the WAL at arbitrary
// byte offsets, recover, and verify the store state is exactly the
// clean prefix of acknowledged appends — no partial item states.
func TestTornTailRecovery(t *testing.T) {
	master := t.TempDir()
	s := openDurable(t, durableConfig(master))
	const n = 8
	// expected[k] = observable state after the first k appends.
	expected := make([]string, n+1)
	ids := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		id := ids[i%len(ids)]
		if _, err := s.AppendReviews(id, "Item "+id, []extract.RawReview{{
			ID:     "r" + string(rune('0'+i)),
			Text:   phoneReviews[i%len(phoneReviews)].Text,
			Rating: phoneReviews[i%len(phoneReviews)].Rating,
		}}); err != nil {
			t.Fatal(err)
		}
		expected[i+1] = observe(t, s)
	}
	// No Close: simulate a hard stop with the WAL as-is.

	segs, err := filepath.Glob(filepath.Join(master, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	rng := rand.New(rand.NewSource(42))
	cuts := []int64{0, 1, int64(len(data)) - 1, int64(len(data))}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Int63n(int64(len(data))+1))
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openDurable(t, durableConfig(dir))
		rec, _ := s2.Recovery()
		k := rec.ReplayedRecords
		if k > n {
			t.Fatalf("cut=%d: replayed %d > %d appends", cut, k, n)
		}
		got := ""
		if k > 0 {
			got = observe(t, s2)
		} else if len(s2.List()) != 0 {
			t.Fatalf("cut=%d: empty prefix but %d items", cut, len(s2.List()))
		}
		if k > 0 && got != expected[k] {
			t.Fatalf("cut=%d: recovered state is not the clean %d-append prefix:\ngot:  %s\nwant: %s",
				cut, k, got, expected[k])
		}
		// The recovered store must remain writable (the log resumes at
		// the truncation point).
		if _, err := s2.AppendReviews("resume", "", phoneReviews[:1]); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s2.Close()
	}
}

// TestSnapshotCompactionAndRecovery drives the automatic snapshot
// cadence, verifies WAL segments are retired, and recovers from
// snapshot + replay.
func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 5
	cfg.SegmentBytes = 512 // force frequent rotation
	s := openDurable(t, cfg)
	const n = 23
	for i := 0; i < n; i++ {
		id := "item" + string(rune('A'+i%4))
		if _, err := s.AppendReviews(id, "", phoneReviews[i%len(phoneReviews):][:1]); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot loop is asynchronous; wait for at least one.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SnapshotsWritten == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Stats().SnapshotsWritten == 0 {
		t.Fatal("no automatic snapshot after 23 appends with SnapshotEvery=5")
	}
	if err := s.PersistErr(); err != nil {
		t.Fatalf("background persistence error: %v", err)
	}
	before := observe(t, s)
	if err := s.Close(); err != nil { // final snapshot + retire remaining segments
		t.Fatal(err)
	}

	// Compaction must actually delete files: with 23 tiny appends and
	// 512-byte segments there were many rotations, but everything
	// before the final snapshot is retirable.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) > 2 {
		t.Fatalf("compaction left %d WAL segments: %v", len(segs), segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("snapshot pruning kept %d snapshots: %v", len(snaps), snaps)
	}

	s2 := openDurable(t, cfg)
	defer s2.Close()
	if after := observe(t, s2); after != before {
		t.Fatalf("snapshot recovery changed observable state:\nbefore: %s\nafter:  %s", before, after)
	}
	rec, _ := s2.Recovery()
	if rec.SnapshotSeq == 0 || rec.SnapshotItems == 0 {
		t.Fatalf("recovery did not use the snapshot: %+v", rec)
	}
}

// TestSnapshotSurvivesWALLoss: if the WAL directory loses its segment
// files entirely, the snapshot still restores, and new appends mint
// sequence numbers beyond the snapshot (never colliding with it).
func TestSnapshotSurvivesWALLoss(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	before := observe(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openDurable(t, durableConfig(dir))
	if after := observe(t, s2); after != before {
		t.Fatalf("snapshot-only recovery changed state:\nbefore: %s\nafter:  %s", before, after)
	}
	if _, err := s2.AppendReviews("p2", "New", phoneReviews[:1]); err != nil {
		t.Fatal(err)
	}
	roundTrip := observe(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openDurable(t, durableConfig(dir))
	defer s3.Close()
	if got := observe(t, s3); got != roundTrip {
		t.Fatalf("post-WAL-loss appends did not survive:\ngot:  %s\nwant: %s", got, roundTrip)
	}
}

// failAfter passes the first n bytes written to it on to w, then fails
// as a full disk does: a short write and ENOSPC.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	k, _ := f.w.Write(p[:f.n])
	f.n = 0
	return k, syscall.ENOSPC
}

// TestSnapshotWriteFailureKeepsLog injects two failures into the
// streamed snapshot write: a writer that fails after 100 bytes,
// standing in for a short write or a full disk, and a non-finite
// sentiment planted in an entry, which the writer refuses as
// json.Marshal does. The background snapshot and a forced one both
// fail with the error, and PersistErr reports it. No snapshot or temp
// file is left and no WAL segment is removed, so a reopen recovers
// every acknowledged record.
func TestSnapshotWriteFailureKeepsLog(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(s *Store)
		is     func(error) bool
	}{
		{"short write", func(s *Store) {
			s.persist.testSnapshotWriter = func(w io.Writer) io.Writer { return &failAfter{w: w, n: 100} }
		}, func(err error) bool { return errors.Is(err, syscall.ENOSPC) }},
		{"non-finite sentiment", func(s *Store) {
			s.mu.Lock()
			s.items["p2"].item.Reviews[1].Sentences[0].Pairs[0].Sentiment = math.NaN()
			s.mu.Unlock()
		}, func(err error) bool {
			var uv *json.UnsupportedValueError
			return errors.As(err, &uv)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.SnapshotEvery = -1
			s := openDurable(t, cfg)
			if _, err := s.AppendReviews("p1", "Acme", phoneReviews[:2]); err != nil {
				t.Fatal(err)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendReviews("p2", "Bolt", phoneReviews); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendReviews("p1", "", phoneReviews[2:]); err != nil {
				t.Fatal(err)
			}
			before := observe(t, s)
			files := listDir(t, dir)

			tc.inject(s)
			s.persist.snapCh <- struct{}{} // the cadence's trigger
			deadline := time.Now().Add(10 * time.Second)
			for s.PersistErr() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := s.PersistErr(); !tc.is(err) {
				t.Fatalf("PersistErr after the background snapshot = %v", err)
			}
			if err := s.Snapshot(); !tc.is(err) {
				t.Fatalf("Snapshot = %v", err)
			}
			if got := listDir(t, dir); !reflect.DeepEqual(got, files) {
				t.Fatalf("failed snapshots changed the directory:\nbefore %v\nafter  %v", files, got)
			}
			if err := s.Close(); !tc.is(err) {
				t.Fatalf("Close = %v, want its final snapshot's failure", err)
			}

			s2 := openDurable(t, durableConfig(dir))
			defer s2.Close()
			if after := observe(t, s2); after != before {
				t.Fatalf("recovery after failed snapshots changed observable state:\nbefore: %s\nafter:  %s", before, after)
			}
			if rec, _ := s2.Recovery(); rec.SnapshotSeq != 1 || rec.ReplayedRecords != 2 {
				t.Fatalf("recovery = %+v, want the seq-1 snapshot and 2 replayed records", rec)
			}
		})
	}
}

// TestSnapshotSuccessClearsPersistErr: a snapshot that succeeds,
// background or forced, clears the failure an earlier snapshot left in
// PersistErr, while a failed interval fsync stays reported.
func TestSnapshotSuccessClearsPersistErr(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotEvery = -1
	s := openDurable(t, cfg)
	defer s.Close()
	waitPersistErr := func(want func(error) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !want(s.PersistErr()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := s.PersistErr(); !want(err) {
			t.Fatalf("%s: PersistErr = %v", what, err)
		}
	}
	isENOSPC := func(err error) bool { return errors.Is(err, syscall.ENOSPC) }
	isNil := func(err error) bool { return err == nil }
	shortWrite := func(w io.Writer) io.Writer { return &failAfter{w: w, n: 100} }

	if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	s.persist.testSnapshotWriter = shortWrite
	s.persist.snapCh <- struct{}{} // the cadence's trigger
	waitPersistErr(isENOSPC, "failed background snapshot")
	s.persist.testSnapshotWriter = nil
	s.persist.snapCh <- struct{}{}
	waitPersistErr(isNil, "background snapshot after the fault is removed")
	if n := s.persist.snapshotsWritten.Load(); n != 1 {
		t.Fatalf("snapshots written = %d, want 1", n)
	}

	if _, err := s.AppendReviews("p2", "Bolt", phoneReviews); err != nil {
		t.Fatal(err)
	}
	s.persist.testSnapshotWriter = shortWrite
	if err := s.Snapshot(); !isENOSPC(err) {
		t.Fatalf("forced snapshot with the fault = %v", err)
	}
	waitPersistErr(isENOSPC, "failed forced snapshot")
	s.persist.testSnapshotWriter = nil
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	waitPersistErr(isNil, "forced snapshot after the fault is removed")

	syncErr := errors.New("wal sync: input/output error")
	s.persist.syncErr.Store(&syncErr)
	if _, err := s.AppendReviews("p3", "Cell", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistErr(); err != syncErr {
		t.Fatalf("PersistErr after a failed fsync and a snapshot that succeeds = %v, want %v", err, syncErr)
	}
}

// listDir returns the names of dir's files, sorted.
func listDir(t *testing.T, dir string) []string {
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

// TestFsyncPolicies exercises the interval and never policies
// end-to-end (a process-internal "crash" keeps OS-buffered writes, so
// all three policies recover fully here).
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.Fsync = policy
			cfg.FsyncInterval = 10 * time.Millisecond
			s := openDurable(t, cfg)
			if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
				t.Fatal(err)
			}
			before := observe(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openDurable(t, cfg)
			defer s2.Close()
			if after := observe(t, s2); after != before {
				t.Fatalf("policy %v: restart changed state", policy)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "": FsyncAlways,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

// TestInMemoryStoreUnchanged pins that the zero-config store has no
// durability side effects and ignores Close/Sync/Snapshot.
func TestInMemoryStoreUnchanged(t *testing.T) {
	s := testStore(t)
	if _, err := s.AppendReviews("p1", "", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Recovery(); ok {
		t.Fatal("in-memory store reports recovery stats")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Durable || st.WALLastSeq != 0 {
		t.Fatalf("in-memory stats claim durability: %+v", st)
	}
}

// TestDeleteInvalidatesCacheInCriticalSection is the regression test
// for the delete/cache race: a summary solve that is in flight while
// its item is deleted must never leave a cache entry behind.
func TestDeleteInvalidatesCacheInCriticalSection(t *testing.T) {
	s := testStore(t)
	if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	// The hook runs after the solve but before the result is cached —
	// exactly the window in which the old code could resurrect a
	// summary for a deleted item.
	s.testSolveHook = func(id string) {
		if deleted, err := s.Delete(id); !deleted || err != nil {
			t.Errorf("mid-flight delete = (%v, %v)", deleted, err)
		}
	}
	if _, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	s.testSolveHook = nil
	if n := s.cache.itemEntries("p1"); n != 0 {
		t.Fatalf("deleted item left %d summaries in the cache", n)
	}
	if _, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); err != ErrNotFound {
		t.Fatalf("summary of deleted item = %v, want ErrNotFound", err)
	}
}

// TestDurableDeleteNeverServedAfterRecovery: ingest, summarize,
// delete, crash-recover — the recovered store must 404 the deleted
// item and hold no trace of it.
func TestDurableDeleteNeverServedAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.AppendReviews("doomed", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Summary("doomed", 2, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	if deleted, err := s.Delete("doomed"); !deleted || err != nil {
		t.Fatalf("delete = (%v, %v)", deleted, err)
	}
	// Hard stop (no Close): recovery must replay the delete too.
	s2 := openDurable(t, durableConfig(dir))
	defer s2.Close()
	if _, _, err := s2.Summary("doomed", 2, model.GranularitySentences, MethodGreedy); err != ErrNotFound {
		t.Fatalf("recovered store served a deleted item: err = %v", err)
	}
	if n := s2.cache.itemEntries("doomed"); n != 0 {
		t.Fatalf("recovered cache holds %d entries for a deleted item", n)
	}
	if got := s2.List(); len(got) != 0 {
		t.Fatalf("recovered items = %v", got)
	}
}

// walReview is a raw review in its logged form: json.Marshal of a
// loggedRecord, and of a snapshot with its raws in this form
// (marshalSnapshot), is the reference appendWalRecord and writeSnapshot
// write.
type walReview struct {
	ID     string  `json:"id,omitempty"`
	Text   string  `json:"text,omitempty"`
	Rating float64 `json:"rating,omitempty"`
}

// loggedRecord is a walRecord with its reviews in their logged form.
type loggedRecord struct {
	Op      string          `json:"op"`
	ID      string          `json:"id"`
	Name    string          `json:"name,omitempty"`
	TS      time.Time       `json:"ts"`
	Reviews []walReview     `json:"reviews,omitempty"`
	Entry   json.RawMessage `json:"entry,omitempty"`
}

// TestWalRecordRoundTrip pins the WAL record JSON: ratings and
// timestamps must survive encode/decode exactly, or replayed state
// would drift from the acknowledged state. appendWalRecord writes the
// bytes json.Encoder writes for the same loggedRecord, without its
// newline, refuses what Marshal refuses, and decodeChange reads the
// change back.
func TestWalRecordRoundTrip(t *testing.T) {
	s := testStore(t)
	ts := time.Date(2026, 8, 6, 12, 34, 56, 789012345, time.UTC)
	in := loggedRecord{Op: opAppend, ID: "p1", Name: "Acme", TS: ts, Reviews: []walReview{
		{ID: "r1", Text: "The screen is excellent.", Rating: 0.30000000000000004},
		{ID: "r2", Text: "unicode \u00e9 \u2713", Rating: -1},
	}}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.decodeChange(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := (loggedRecord{Op: out.op, ID: out.id, Name: out.name, TS: out.ts, Reviews: loggedRaws(out.raws)}); !reflect.DeepEqual(in, got) {
		t.Fatalf("wal record round trip:\nin:  %+v\nout: %+v", in, got)
	}

	for _, rec := range []loggedRecord{
		in,
		{Op: opAppend, ID: "p<2>&", TS: ts.In(time.FixedZone("", -7*3600)), Reviews: []walReview{
			{ID: "q\"1", Text: "The \"screen\" <b>&</b>.\nThe battery\u2028 is awful\\.\t\x01", Rating: 1e-7},
			{Text: "caf\xc3 \xff \xed\xa0\x80 ok", Rating: math.Copysign(0, -1)},
			{ID: "r3", Rating: 1e21},
			{},
		}},
		{Op: opAppend, ID: "p3", Name: "", TS: ts, Reviews: []walReview{{ID: "r1", Text: "No rating."}}},
		{Op: opAppend, ID: "p4", Name: "Renamed only", TS: ts},
		{Op: opDelete, ID: "p1", TS: ts},
		{Op: opActivate, TS: ts, Entry: json.RawMessage("{ \"name\" : \"<phone>\", \"eps\": [0.5] }")},
	} {
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(&rec); err != nil {
			t.Fatal(err)
		}
		want := bytes.TrimSuffix(enc.Bytes(), []byte("\n"))
		c := change{op: rec.Op, id: rec.ID, name: rec.Name, ts: rec.TS}
		for _, r := range rec.Reviews {
			c.raws = append(c.raws, extract.RawReview(r))
		}
		if rec.Entry != nil {
			c.rt = &ontoreg.Runtime{Payload: rec.Entry}
		}
		got, err := appendWalRecord([]byte("x"), &c)
		if err != nil || !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendWalRecord = %s (err %v)\nwant %s", got[1:], err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		_, want := json.Marshal(loggedRecord{Reviews: []walReview{{Rating: bad}}})
		if _, err := appendWalRecord(nil, &change{op: opAppend, id: "p", ts: ts, raws: []extract.RawReview{{Rating: bad}}}); err == nil || want == nil {
			t.Fatalf("rating %v: appendWalRecord error %v, json.Marshal error %v", bad, err, want)
		}
	}
}

// loggedRaws returns raws in their logged form.
func loggedRaws(raws []extract.RawReview) []walReview {
	var out []walReview
	for _, r := range raws {
		out = append(out, walReview(r))
	}
	return out
}
