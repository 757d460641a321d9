package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"osars/internal/extract"
	"osars/internal/wal"
)

// copyDir copies every regular file of src into dst — the "crash
// image" a kill point leaves behind.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitKillPoints is the crash-consistency proof for group
// commit. It stages a deterministic 3-record batch exactly as three
// concurrent writers would, snapshots the data directory at both kill
// points of commitBatch (after the batch Write, before the Sync; and
// after the Sync, before any waiter is released), then recovers from
// those images — including torn truncations of the written-but-unsynced
// batch at every frame boundary and at random interior offsets:
//
//   - the acknowledged prefix (everything before the batch) is never
//     lost,
//   - a torn batch tail truncates cleanly at a frame boundary — the
//     recovered records are exactly the whole frames before the cut,
//   - the synced-but-unacknowledged image recovers the full batch
//     byte-identically to the primary's post-commit state,
//   - every recovered store stays writable.
func TestGroupCommitKillPoints(t *testing.T) {
	master := t.TempDir()
	s := openDurable(t, durableConfig(master))
	ackedIDs := []string{"a", "b", "c"}
	for i, id := range ackedIDs {
		if _, err := s.AppendReviews(id, "Item "+id, phoneReviews[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v)", segs, err)
	}
	segName := filepath.Base(segs[0])
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ackedBytes := fi.Size()

	// Stage the batch by hand — three independent items, logged
	// timestamps fixed so every recovery reproduces them exactly.
	p := s.persist
	batchIDs := []string{"g1", "g2", "g3"}
	ts := time.Date(2026, 8, 8, 1, 2, 3, 0, time.UTC)
	var batch []*commitReq
	var frameEnds []int64 // on-disk end offset of each batch frame
	off := ackedBytes
	for i, id := range batchIDs {
		reviews := []extract.RawReview{{
			ID:     "r-" + id,
			Text:   phoneReviews[i].Text,
			Rating: phoneReviews[i].Rating,
		}}
		rt := s.rt.Load()
		annotated := rt.Pipeline.AnnotateReviews(reviews, 0)
		req, err := stage(change{op: opAppend, id: id, name: "Item " + id, ts: ts.Add(time.Duration(i) * time.Second), raws: reviews, annotated: annotated, annVer: rt.Version})
		if err != nil {
			t.Fatal(err)
		}
		off += int64(wal.FrameSize(len(req.payload)))
		frameEnds = append(frameEnds, off)
		batch = append(batch, req)
	}

	stageDirs := map[commitStage]string{
		stageWritten: t.TempDir(),
		stageSynced:  t.TempDir(),
	}
	p.testCommitHook = func(st commitStage) { copyDir(t, master, stageDirs[st]) }
	p.commitBatch(batch)
	p.testCommitHook = nil
	for _, r := range batch {
		if r.err != nil {
			t.Fatalf("batch commit: %v", r.err)
		}
		if r.stats.Generation == 0 {
			t.Fatalf("batch record %s not applied: %+v", r.id, r.stats)
		}
	}
	masterState := observe(t, s)
	masterStats := make(map[string]string)
	for _, it := range s.List() {
		masterStats[it.ID] = marshal(t, it)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill point 2: batch durable, no waiter released. Recovery must
	// replay the whole batch and land byte-identical to the primary.
	s2 := openDurable(t, durableConfig(stageDirs[stageSynced]))
	rec, _ := s2.Recovery()
	if want := len(ackedIDs) + len(batchIDs); rec.ReplayedRecords != want {
		t.Fatalf("stageSynced: replayed %d records, want %d", rec.ReplayedRecords, want)
	}
	if got := observe(t, s2); got != masterState {
		t.Fatalf("stageSynced recovery diverged from primary:\ngot:  %s\nwant: %s", got, masterState)
	}
	s2.Close()

	// Kill point 1: batch written, not synced. A real crash here can
	// persist any byte prefix of the batch; simulate torn tails at every
	// frame boundary (±1) plus random interior offsets.
	data, err := os.ReadFile(filepath.Join(stageDirs[stageWritten], segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != frameEnds[len(frameEnds)-1] {
		t.Fatalf("stageWritten image is %d bytes, want %d", len(data), frameEnds[len(frameEnds)-1])
	}
	cuts := []int64{ackedBytes}
	for _, end := range frameEnds {
		cuts = append(cuts, end-1, end)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		cuts = append(cuts, ackedBytes+rng.Int63n(int64(len(data))-ackedBytes+1))
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s3 := openDurable(t, durableConfig(dir))
		rec, _ := s3.Recovery()
		// Truncation must land on a frame boundary: the recovered batch
		// suffix is exactly the whole frames before the cut.
		wholeFrames := 0
		for _, end := range frameEnds {
			if end <= cut {
				wholeFrames++
			}
		}
		if want := len(ackedIDs) + wholeFrames; rec.ReplayedRecords != want {
			t.Fatalf("cut=%d: replayed %d records, want %d (acked %d + %d whole batch frames)",
				cut, rec.ReplayedRecords, want, len(ackedIDs), wholeFrames)
		}
		// No acknowledged append missing, and every recovered item —
		// acked or batch prefix — matches the primary's final state
		// byte for byte (the batch items are independent, so a prefix
		// recovery reproduces them exactly: same generations, logged
		// timestamps, same corpus).
		wantIDs := append(append([]string{}, ackedIDs...), batchIDs[:wholeFrames]...)
		list := s3.List()
		if len(list) != len(wantIDs) {
			t.Fatalf("cut=%d: recovered %d items, want %d (%v)", cut, len(list), len(wantIDs), wantIDs)
		}
		for _, it := range list {
			if got, want := marshal(t, it), masterStats[it.ID]; got != want {
				t.Fatalf("cut=%d: item %s diverged:\ngot:  %s\nwant: %s", cut, it.ID, got, want)
			}
		}
		if _, err := s3.AppendReviews("resume", "", phoneReviews[:1]); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s3.Close()
	}
}

// TestGroupCommitCloseRace: writers racing Close either get their
// append acknowledged or an errStoreClosed-style refusal — never a
// hang, never a lost acknowledged write. The reopened store must hold
// exactly the acknowledged appends (Close drains the staged queue, so
// logged == acknowledged).
func TestGroupCommitCloseRace(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	const writers = 8
	acked := make([]int, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("item-%d", w)
			for i := 0; ; i++ {
				rv := phoneReviews[i%len(phoneReviews)]
				_, err := s.AppendReviews(id, "", []extract.RawReview{{
					ID: fmt.Sprintf("w%d-r%d", w, i), Text: rv.Text, Rating: rv.Rating,
				}})
				if err != nil {
					if !errors.Is(err, errStoreClosed) && !errors.Is(err, wal.ErrClosed) {
						errs <- fmt.Errorf("writer %d: unexpected close error: %w", w, err)
					}
					return
				}
				acked[w] = i + 1
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Close()
	for w := 0; w < writers; w++ {
		if acked[w] == 0 {
			continue
		}
		st, ok := s2.ItemStats(fmt.Sprintf("item-%d", w))
		if !ok {
			t.Fatalf("writer %d: %d acknowledged appends but item missing after reopen", w, acked[w])
		}
		if st.NumReviews != acked[w] {
			t.Fatalf("writer %d: reopened store holds %d reviews, want exactly %d acknowledged",
				w, st.NumReviews, acked[w])
		}
	}
}

// TestGroupCommitReplicaConvergence is the -race stress test for the
// batched write path: many goroutines append (and delete) against one
// FsyncAlways store while a follower concurrently tails the WAL via
// wal.Tail — woken by the per-batch AppendNotify — and applies every
// frame to an in-memory replica. The replica must converge to a
// byte-identical observable state with no duplicate or missing
// sequence numbers (ApplyReplicated rejects any gap).
func TestGroupCommitReplicaConvergence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = -1 // keep the whole WAL: the tail must never hit ErrCompacted
	s := openDurable(t, cfg)

	rcfg := testConfig()
	rcfg.Replica = true
	replica, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const perWriter = 20
	var wg sync.WaitGroup
	writerErrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("item-%d", w%4) // contended: several writers share an item
				rv := phoneReviews[(w+i)%len(phoneReviews)]
				if _, err := s.AppendReviews(id, "", []extract.RawReview{{
					ID: fmt.Sprintf("w%d-r%d", w, i), Text: rv.Text, Rating: rv.Rating,
				}}); err != nil {
					writerErrs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				// Writer 0 also churns a short-lived item so deletes flow
				// through the same batches.
				if w == 0 && i%5 == 0 {
					victim := fmt.Sprintf("victim-%d", i)
					if _, err := s.AppendReviews(victim, "", []extract.RawReview{{ID: victim, Text: rv.Text}}); err != nil {
						writerErrs <- err
						return
					}
					if _, err := s.Delete(victim); err != nil {
						writerErrs <- err
						return
					}
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	// The follower: tail raw frames concurrently with the writers and
	// apply them in sequence order.
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- func() error {
			tail, err := s.ReplTail(0)
			if err != nil {
				return err
			}
			defer tail.Close()
			deadline := time.After(30 * time.Second)
			for {
				notify, err := s.ReplNotify() // arm before reading: no missed wakeups
				if err != nil {
					return err
				}
				frames, count, first, err := tail.Next(1 << 20)
				if err != nil {
					return err
				}
				if count > 0 {
					if first != replica.AppliedSeq()+1 {
						return fmt.Errorf("tail jumped: got first seq %d, applied %d", first, replica.AppliedSeq())
					}
					fr := wal.NewFrameReader(bytes.NewReader(frames))
					for {
						seq, payload, err := fr.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							return err
						}
						if err := replica.ApplyReplicated(seq, payload); err != nil {
							return err
						}
					}
					continue
				}
				// Caught up: done once the writers are and nothing is pending.
				select {
				case <-writersDone:
					if replica.AppliedSeq() == s.Stats().WALLastSeq {
						return nil
					}
				default:
				}
				select {
				case <-notify:
				case <-time.After(50 * time.Millisecond):
				case <-deadline:
					return fmt.Errorf("follower timed out at seq %d of %d",
						replica.AppliedSeq(), s.Stats().WALLastSeq)
				}
			}
		}()
	}()

	<-writersDone
	close(writerErrs)
	for err := range writerErrs {
		t.Fatal(err)
	}
	if err := <-tailErr; err != nil {
		t.Fatal(err)
	}
	if err := s.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if got, want := replica.AppliedSeq(), s.Stats().WALLastSeq; got != want {
		t.Fatalf("replica applied %d of %d records", got, want)
	}
	if primary, rep := observe(t, s), observe(t, replica); primary != rep {
		t.Fatalf("replica diverged from primary:\nprimary: %s\nreplica: %s", primary, rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
