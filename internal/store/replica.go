// Replica apply mode: the store-side half of read-replica replication
// (internal/repl). A store opened with Config.Replica = true rejects
// local writes (AppendReviews/Delete return ErrReadOnly) and instead
// applies WAL records shipped from a primary via ApplyReplicated —
// each record re-runs the exact same applyWalRecord path recovery
// uses, so generations, timestamps and counters advance identically to
// the primary's without the replica minting any state of its own. A
// durable replica additionally appends every shipped record to its own
// local WAL (preserving the primary's sequence numbers byte for byte)
// before applying it, so a replica restart resumes tailing from its
// last locally durable sequence instead of re-syncing from scratch.
//
// The primary-side accessors (ReplTail, ReplNotify, ReplStatus,
// ReplSnapshotRaw) expose the WAL and snapshot machinery replication
// ships: they are defined here, next to the replica side, so the whole
// store replication surface reads in one place.

package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/wal"
)

// ErrReadOnly is returned by AppendReviews and Delete on a replica
// store: writes go to the primary.
var ErrReadOnly = errors.New("store: read-only replica")

// ErrNotDurable is returned by the replication source accessors on an
// in-memory store: only a durable store has a WAL to ship.
var ErrNotDurable = errors.New("store: replication requires a durable store (no data dir)")

// ReplStatus is the replication-relevant position of one store: where
// its WAL ends, how far back it is retained, and where the newest
// snapshot cuts.
type ReplStatus struct {
	// NextSeq is the sequence number the next logged record will get;
	// NextSeq-1 is the newest applied record.
	NextSeq uint64 `json:"next_seq"`
	// OldestSeq is the first sequence number the WAL still holds;
	// records below it are only reachable through a snapshot.
	OldestSeq uint64 `json:"oldest_seq"`
	// SnapshotSeq is the newest on-disk snapshot's cut (0 when none).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// WALBytes is the total on-disk size of the live WAL segments.
	WALBytes int64 `json:"wal_bytes"`
}

// Replica reports whether the store is a read-only replica.
func (s *Store) Replica() bool { return s.replica }

// AppliedSeq returns the newest WAL sequence number the store has
// applied: on a durable store the log position, on an in-memory
// replica the position of the last shipped record. Zero means nothing
// applied (or an in-memory non-replica store, which has no sequence
// space at all).
func (s *Store) AppliedSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.persist != nil {
		return s.persist.appliedSeq
	}
	return s.replApplied
}

// ApplyReplicated applies one WAL record shipped from the primary. seq
// must be exactly AppliedSeq()+1 — the stream protocol guarantees
// contiguity, and a gap here means the follower lost its place. On a
// durable replica the record is appended to the local WAL (with the
// same sequence number, which the contiguity check makes automatic)
// before it is applied, honoring the store's fsync policy; the local
// snapshot/compaction cadence runs exactly as on a primary.
func (s *Store) ApplyReplicated(seq uint64, payload []byte) error {
	if !s.replica {
		return errors.New("store: ApplyReplicated on a non-replica store")
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("store: replicated record %d: %w", seq, err)
	}
	// Annotation (and activate-entry compilation) is the expensive
	// part; run it outside the lock, like the live ingest path does.
	var raws []extract.RawReview
	var annotated []model.Review
	var annVer string
	var actRT *ontoreg.Runtime
	switch rec.Op {
	case opAppend:
		rt := s.rt.Load()
		raws = rawReviews(rec.Reviews)
		annotated = rt.Pipeline.AnnotateReviews(raws, 0)
		annVer = rt.Version
	case opActivate:
		rt, err := runtimeFromEntry(rec.Entry)
		if err != nil {
			return fmt.Errorf("store: replicated record %d: %w", seq, err)
		}
		actRT = rt
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.replApplied + 1
	if s.persist != nil {
		want = s.persist.appliedSeq + 1
	}
	if seq != want {
		return fmt.Errorf("store: replication gap: got seq %d, want %d", seq, want)
	}
	if s.persist != nil {
		got, err := s.persist.log.Append(payload)
		if err != nil {
			return fmt.Errorf("store: replica wal append: %w", err)
		}
		if got != seq {
			return fmt.Errorf("store: replica wal minted seq %d for shipped seq %d", got, seq)
		}
		if s.persist.policy == FsyncAlways {
			if err := s.persist.log.Sync(); err != nil {
				return fmt.Errorf("store: replica wal sync: %w", err)
			}
		}
		s.persist.noteLoggedLocked(seq)
	} else {
		s.replApplied = seq
	}
	s.applyRecordLocked(&rec, raws, annotated, annVer, actRT)
	return nil
}

// applyRecordLocked applies one decoded WAL record under s.mu, with
// annotation (and activate-runtime compilation) already done. Shared
// by ApplyReplicated and (via applyWalRecord) boot-time replay.
func (s *Store) applyRecordLocked(rec *walRecord, raws []extract.RawReview, annotated []model.Review, annVer string, actRT *ontoreg.Runtime) {
	switch rec.Op {
	case opAppend:
		s.applyAppendLocked(rec.ID, rec.Name, raws, annotated, annVer, rec.TS)
		s.appends.Add(1)
	case opDelete:
		delete(s.items, rec.ID)
		s.cache.PurgeItem(rec.ID)
	case opActivate:
		s.setRuntimeLocked(actRT)
	}
}

// InstallSnapshot replaces the replica's entire state with a snapshot
// shipped from the primary (payload is the snapshot's inner JSON,
// already container-verified by the caller) covering WAL records
// ≤ seq. Used when the follower fell behind the primary's compaction
// horizon: catch-up restarts from the snapshot instead of a record
// stream that no longer exists. A durable replica persists the
// snapshot locally and resets its WAL to continue at seq+1, so the
// bootstrap itself survives a restart. Installing a snapshot at or
// below the replica's applied position is a no-op.
func (s *Store) InstallSnapshot(seq uint64, payload []byte) error {
	if !s.replica {
		return errors.New("store: InstallSnapshot on a non-replica store")
	}
	var snap snapFile
	if err := decodeSnapshot(payload, &snap); err != nil {
		return fmt.Errorf("store: decode shipped snapshot: %w", err)
	}
	if snap.Schema != snapSchema {
		return fmt.Errorf("store: shipped snapshot has unknown schema %q", snap.Schema)
	}
	if snap.LastSeq != seq {
		return fmt.Errorf("store: shipped snapshot covers seq %d, advertised as %d", snap.LastSeq, seq)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	applied := s.replApplied
	if s.persist != nil {
		applied = s.persist.appliedSeq
	}
	if applied >= seq {
		return nil
	}
	if s.persist != nil {
		if _, err := wal.WriteSnapshot(s.persist.dir, seq, payload); err != nil {
			return fmt.Errorf("store: persist shipped snapshot: %w", err)
		}
		if err := s.persist.log.SkipTo(seq + 1); err != nil {
			return fmt.Errorf("store: reset replica wal: %w", err)
		}
		if _, err := wal.PruneSnapshots(s.persist.dir, snapshotsToKeep); err != nil {
			return fmt.Errorf("store: prune replica snapshots: %w", err)
		}
		s.persist.appliedSeq = seq
		s.persist.lastSnapSeq = seq
		s.persist.sinceSnap = 0
	} else {
		s.replApplied = seq
	}
	// Adopt the primary's active ontology before the items, so annVer
	// defaults line up (old-format snapshots carry neither).
	if len(snap.ActiveEntry) > 0 {
		rt, err := runtimeFromEntry(snap.ActiveEntry)
		if err != nil {
			return fmt.Errorf("store: shipped snapshot active ontology: %w", err)
		}
		s.rt.Store(rt)
	}
	s.activations.Store(snap.Activations)
	ver := s.rt.Load().Version
	s.items = make(map[string]*entry, len(snap.Items))
	for i := range snap.Items {
		s.items[snap.Items[i].ID] = entryFromSnap(&snap.Items[i], ver)
	}
	s.nextGen = snap.NextGen
	s.appends.Store(snap.Appends)
	s.cache.PurgeAll()
	return nil
}

// ReplTail returns a WAL tail positioned after seq `after`, the
// primary-side cursor the stream handler ships frames from. Returns
// wal.ErrCompacted when the follower must bootstrap from a snapshot.
func (s *Store) ReplTail(after uint64) (*wal.Tail, error) {
	if s.persist == nil {
		return nil, ErrNotDurable
	}
	return s.persist.log.TailAfter(after)
}

// ReplNotify returns a channel closed by the next WAL append; stream
// handlers block on it when a tail is caught up.
func (s *Store) ReplNotify() (<-chan struct{}, error) {
	if s.persist == nil {
		return nil, ErrNotDurable
	}
	return s.persist.log.AppendNotify(), nil
}

// ReplStatus returns the store's replication position.
func (s *Store) ReplStatus() (ReplStatus, error) {
	if s.persist == nil {
		return ReplStatus{}, ErrNotDurable
	}
	s.mu.RLock()
	snapSeq := s.persist.lastSnapSeq
	s.mu.RUnlock()
	return ReplStatus{
		NextSeq:     s.persist.log.NextSeq(),
		OldestSeq:   s.persist.log.OldestSeq(),
		SnapshotSeq: snapSeq,
		WALBytes:    s.persist.log.SizeBytes(),
	}, nil
}

// ReplSnapshotRaw returns the newest readable on-disk snapshot as its
// raw container bytes (ok=false when none exists yet), the payload of
// the replica bootstrap endpoint.
func (s *Store) ReplSnapshotRaw() (raw []byte, seq uint64, ok bool, err error) {
	if s.persist == nil {
		return nil, 0, false, ErrNotDurable
	}
	return wal.LoadLatestSnapshotRaw(s.persist.dir)
}

// rawReviews converts logged reviews back to pipeline input.
func rawReviews(in []walReview) []extract.RawReview {
	raws := make([]extract.RawReview, len(in))
	for i, r := range in {
		raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	return raws
}
