package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"osars/internal/wal"
)

func replicaConfig(dir string) Config {
	cfg := testConfig()
	cfg.Replica = true
	cfg.DataDir = dir
	return cfg
}

// encodeRecord builds the WAL payload a primary would log for an
// append or a delete, as json.Marshal writes its loggedRecord.
func encodeRecord(t *testing.T, op, id, name string, reviews []walReview) []byte {
	t.Helper()
	data, err := json.Marshal(loggedRecord{
		Op: op, ID: id, Name: name,
		TS:      time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Reviews: reviews,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReplicaRejectsLocalWrites(t *testing.T) {
	cfg := testConfig()
	cfg.Replica = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Replica() {
		t.Fatal("Replica() = false")
	}
	if _, err := s.AppendReviews("p1", "Phone", phoneReviews[:1]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AppendReviews on replica = %v, want ErrReadOnly", err)
	}
	if _, err := s.Delete("p1"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on replica = %v, want ErrReadOnly", err)
	}
}

func TestApplyReplicatedInMemory(t *testing.T) {
	cfg := testConfig()
	cfg.Replica = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := encodeRecord(t, opAppend, "p1", "Acme Phone", []walReview{
		{ID: "r1", Text: phoneReviews[0].Text, Rating: 0.2},
	})
	if err := s.ApplyReplicated(1, rec); err != nil {
		t.Fatal(err)
	}
	if s.AppliedSeq() != 1 {
		t.Fatalf("AppliedSeq = %d", s.AppliedSeq())
	}
	st, ok := s.ItemStats("p1")
	if !ok || st.NumReviews != 1 || st.Name != "Acme Phone" || st.Generation != 1 {
		t.Fatalf("applied item stats = %+v ok=%v", st, ok)
	}

	// A gap (skipping seq 2) is refused: the follower lost its place.
	if err := s.ApplyReplicated(3, rec); err == nil {
		t.Fatal("gap accepted")
	}
	// Replayed duplicates are refused too — the stream is exactly-once.
	if err := s.ApplyReplicated(1, rec); err == nil {
		t.Fatal("duplicate accepted")
	}

	// Deletes replicate.
	del := encodeRecord(t, opDelete, "p1", "", nil)
	if err := s.ApplyReplicated(2, del); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ItemStats("p1"); ok {
		t.Fatal("replicated delete did not remove the item")
	}
}

func TestApplyReplicatedOnNonReplica(t *testing.T) {
	s := testStore(t)
	rec := encodeRecord(t, opAppend, "p1", "Phone", nil)
	if err := s.ApplyReplicated(1, rec); err == nil {
		t.Fatal("ApplyReplicated accepted on a non-replica store")
	}
	if err := s.InstallSnapshot(1, nil); err == nil {
		t.Fatal("InstallSnapshot accepted on a non-replica store")
	}
}

// TestApplyReplicatedDurablePreservesSeqs: a durable replica's local
// WAL must carry the primary's exact sequence numbers, so a restart
// resumes from the applied position.
func TestApplyReplicatedDurablePreservesSeqs(t *testing.T) {
	dir := t.TempDir()
	s, err := New(replicaConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, rev := range phoneReviews {
		rec := encodeRecord(t, opAppend, "p1", "Acme Phone", []walReview{
			{ID: rev.ID, Text: rev.Text, Rating: rev.Rating},
		})
		if err := s.ApplyReplicated(uint64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.AppliedSeq(); got != 4 {
		t.Fatalf("AppliedSeq = %d, want 4", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery replays the local WAL and the applied position
	// survives.
	s2, err := New(replicaConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.AppliedSeq(); got != 4 {
		t.Fatalf("AppliedSeq after reopen = %d, want 4", got)
	}
	st, ok := s2.ItemStats("p1")
	if !ok || st.NumReviews != 4 || st.Generation != 4 {
		t.Fatalf("recovered item = %+v ok=%v", st, ok)
	}
}

// TestInstallSnapshot: a shipped snapshot replaces the replica state,
// resets the local WAL past the snapshot seq, and ignores stale
// snapshots at or below the applied position.
func TestInstallSnapshot(t *testing.T) {
	// Build a primary with some state and snapshot it.
	pdir := t.TempDir()
	pcfg := testConfig()
	pcfg.DataDir = pdir
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendReviews("p1", "Acme Phone", phoneReviews[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendReviews("p2", "Beta Phone", phoneReviews[3:]); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	raw, seq, ok, err := p.ReplSnapshotRaw()
	if err != nil || !ok || seq != 2 {
		t.Fatalf("primary snapshot: seq=%d ok=%v err=%v", seq, ok, err)
	}
	payload, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantList := p.List()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	rdir := t.TempDir()
	r, err := New(replicaConfig(rdir))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.InstallSnapshot(seq, payload); err != nil {
		t.Fatal(err)
	}
	if r.AppliedSeq() != seq {
		t.Fatalf("AppliedSeq after install = %d, want %d", r.AppliedSeq(), seq)
	}
	// Compare via JSON: wall-clock equality without the monotonic
	// reading the primary's in-process timestamps still carry.
	gotJSON, _ := json.Marshal(r.List())
	wantJSON, _ := json.Marshal(wantList)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("replica items = %s, want %s", gotJSON, wantJSON)
	}
	// Installing an old snapshot again is a no-op, not a rollback.
	if err := r.InstallSnapshot(seq, payload); err != nil {
		t.Fatal(err)
	}
	// The local WAL continues at seq+1: the next shipped record applies.
	rec := encodeRecord(t, opDelete, "p2", "", nil)
	if err := r.ApplyReplicated(seq+1, rec); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The bootstrap itself survives a restart.
	r2, err := New(replicaConfig(rdir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.AppliedSeq() != seq+1 {
		t.Fatalf("AppliedSeq after reopen = %d, want %d", r2.AppliedSeq(), seq+1)
	}
	if _, ok := r2.ItemStats("p2"); ok {
		t.Fatal("post-snapshot delete lost on restart")
	}
	if _, ok := r2.ItemStats("p1"); !ok {
		t.Fatal("snapshot item lost on restart")
	}
}

// TestReplStatusRequiresDurability: the replication source accessors
// refuse an in-memory store.
func TestReplStatusRequiresDurability(t *testing.T) {
	s := testStore(t)
	if _, err := s.ReplStatus(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReplStatus in memory = %v, want ErrNotDurable", err)
	}
	if _, err := s.ReplTail(0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReplTail in memory = %v", err)
	}
	if _, err := s.ReplNotify(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReplNotify in memory = %v", err)
	}
	if _, _, _, err := s.ReplSnapshotRaw(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReplSnapshotRaw in memory = %v", err)
	}
}

// TestInstallSnapshotAllOrNothing: a shipped snapshot whose active
// ontology entry does not compile is refused before anything changes.
// An in-memory and a durable replica each keep their applied sequence,
// items and data directory, and the durable one reopens.
func TestInstallSnapshotAllOrNothing(t *testing.T) {
	p := openDurable(t, durableConfig(t.TempDir()))
	defer p.Close()
	for _, id := range []string{"p1", "p2"} {
		if _, err := p.AppendReviews(id, "Phone", phoneReviews); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	raw, seq, ok, err := p.ReplSnapshotRaw()
	if err != nil || !ok || seq != 2 {
		t.Fatalf("primary snapshot: seq=%d ok=%v err=%v", seq, ok, err)
	}
	payload, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapFile
	if err := decodeSnapshot(payload, &snap); err != nil {
		t.Fatal(err)
	}
	snap.ActiveEntry = json.RawMessage(`{"schema":"not-an-ontology-entry"}`)
	var bad bytes.Buffer
	if err := writeSnapshot(&bad, &snap); err != nil {
		t.Fatal(err)
	}

	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := testConfig()
			cfg.Replica = true
			if durable {
				cfg.DataDir = t.TempDir()
			}
			r := openDurable(t, cfg)
			defer r.Close()
			rec := encodeRecord(t, opAppend, "r1", "Replica", []walReview{{ID: "x", Text: phoneReviews[0].Text}})
			if err := r.ApplyReplicated(1, rec); err != nil {
				t.Fatal(err)
			}
			before := observe(t, r)
			var files map[string][]byte
			if durable {
				files = readDir(t, cfg.DataDir)
			}

			if err := r.InstallSnapshot(seq, bad.Bytes()); err == nil || !strings.Contains(err.Error(), "snapshot active ontology") {
				t.Fatalf("InstallSnapshot of an uncompilable active entry = %v", err)
			}
			if got := r.AppliedSeq(); got != 1 {
				t.Fatalf("AppliedSeq after a refused install = %d, want 1", got)
			}
			if got := observe(t, r); got != before {
				t.Fatalf("a refused install changed the items:\nbefore: %s\nafter:  %s", before, got)
			}
			if !durable {
				return
			}
			if got := readDir(t, cfg.DataDir); !reflect.DeepEqual(got, files) {
				t.Fatal("a refused install changed the data directory")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := New(cfg)
			if err != nil {
				t.Fatalf("reopen after a refused install: %v", err)
			}
			defer r2.Close()
			if got := r2.AppliedSeq(); got != 1 {
				t.Fatalf("AppliedSeq after reopen = %d, want 1", got)
			}
			if got := observe(t, r2); got != before {
				t.Fatalf("reopen after a refused install:\ngot:  %s\nwant: %s", got, before)
			}
		})
	}
}

// readDir returns the name and contents of every file in dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, name := range listDir(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return files
}
