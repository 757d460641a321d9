package store

import (
	"os"
	"strings"
	"testing"
	"unsafe"

	"osars/internal/wal"
)

// appendEach appends each review of phoneReviews[:n] to id as its own
// record.
func appendEach(t *testing.T, s *Store, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.AppendReviews(id, "", phoneReviews[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptSnapshot flips one payload byte of the snapshot at seq.
func corruptSnapshot(t *testing.T, dir string, seq uint64) {
	t.Helper()
	path := wal.SnapshotPath(dir, seq)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRefusesWALGapAfterCorruptSnapshot: every snapshot
// compacts the log up to itself, so when the newest snapshot is
// unreadable the older one kept beside it no longer has its
// continuation. New must refuse the gap instead of replaying the
// records after it and losing the acknowledged ones in between.
func TestRecoveryRefusesWALGapAfterCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	appendEach(t, s, "a", 3) // seqs 1–3
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendEach(t, s, "b", 3) // seqs 4–6
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendEach(t, s, "c", 1) // seq 7
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon the store (no Close, no final snapshot) and damage the
	// newest snapshot: only the one at seq 3 still reads back.
	corruptSnapshot(t, dir, 6)

	s2, err := New(durableConfig(dir))
	if err == nil {
		rec, _ := s2.Recovery()
		s2.Close()
		t.Fatalf("New recovered %+v with items %v; want an error naming records 4–6", rec, s2.List())
	}
	if !strings.Contains(err.Error(), "records 4–6 are missing") {
		t.Fatalf("New error %q does not name the missing records 4–6", err)
	}
}

// TestRecoveryRefusesWALPastFirstSeqWithoutSnapshot: with no readable
// snapshot, a log whose first record is past seq 1 has lost the
// records before it.
func TestRecoveryRefusesWALPastFirstSeqWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	appendEach(t, s, "a", 3) // seqs 1–3
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendEach(t, s, "b", 2) // seqs 4–5, in a segment starting at 4
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	corruptSnapshot(t, dir, 3)

	s2, err := New(durableConfig(dir))
	if err == nil {
		s2.Close()
		t.Fatalf("New recovered items %v from a log starting at seq 4 without a snapshot", s2.List())
	}
	if !strings.Contains(err.Error(), "records 1–3 are missing") {
		t.Fatalf("New error %q does not name the missing records 1–3", err)
	}
}

// TestRestartSharesSentenceTexts: a store restored from a snapshot
// keeps each sentence's text inside its review's raw text, as live
// annotation slices it, instead of a second copy; what it serves is
// unchanged.
func TestRestartSharesSentenceTexts(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, durableConfig(dir))
	if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p2", "Bolt", phoneReviews[1:3]); err != nil {
		t.Fatal(err)
	}
	before := observe(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, durableConfig(dir))
	defer s2.Close()
	shared := 0
	for id, e := range s2.items {
		for i, r := range e.item.Reviews {
			raw := e.raws[i].Text
			lo := uintptr(unsafe.Pointer(unsafe.StringData(raw)))
			for _, sen := range r.Sentences {
				p := uintptr(unsafe.Pointer(unsafe.StringData(sen.Text)))
				if p < lo || p+uintptr(len(sen.Text)) > lo+uintptr(len(raw)) {
					t.Fatalf("%s review %s: sentence %q is a copy, not part of its raw text %q", id, r.ID, sen.Text, raw)
				}
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no sentences restored")
	}
	if after := observe(t, s2); after != before {
		t.Fatalf("restart changed observable state:\nbefore: %s\nafter:  %s", before, after)
	}
}
