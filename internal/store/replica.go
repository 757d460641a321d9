// Replica apply mode: the store-side half of read-replica replication
// (internal/repl). A store opened with Config.Replica = true rejects
// local writes (AppendReviews/Delete/ActivateOntology return
// ErrReadOnly) and instead applies WAL records shipped from a primary
// via ApplyReplicated — each record is read by decodeChange and applied
// by applyLocked, as recovery replays it and as the primary's live
// write applied it, so generations, timestamps and counters advance
// identically to the primary's without the replica minting any state
// of its own. A durable replica additionally appends every shipped
// record to its own local WAL (preserving the primary's sequence
// numbers byte for byte) before applying it, so a replica restart
// resumes tailing from its last locally durable sequence instead of
// re-syncing from scratch. A shipped snapshot (InstallSnapshot) is
// loaded and restored by the code that restores one at boot
// (loadSnapshot, restoreLocked), and is checked in full before
// anything changes.
//
// The primary-side accessors (ReplTail, ReplNotify, ReplStatus,
// ReplSnapshotRaw) expose the WAL and snapshot machinery replication
// ships: they are defined here, next to the replica side, so the whole
// store replication surface reads in one place.

package store

import (
	"errors"
	"fmt"

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
	return s.appliedSeq
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
	// Annotation (and activate-entry compilation) is the expensive
	// part; decodeChange runs it outside the lock, like a live write.
	c, err := s.decodeChange(payload)
	if err != nil {
		return fmt.Errorf("store: replicated record %d: %w", seq, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if want := s.appliedSeq + 1; seq != want {
		return fmt.Errorf("store: replication gap: got seq %d, want %d", seq, want)
	}
	if p := s.persist; p != nil {
		got, err := p.log.Append(payload)
		if err != nil {
			return fmt.Errorf("store: replica wal append: %w", err)
		}
		if got != seq {
			return fmt.Errorf("store: replica wal minted seq %d for shipped seq %d", got, seq)
		}
		if p.policy == FsyncAlways {
			if err := p.log.Sync(); err != nil {
				return fmt.Errorf("store: replica wal sync: %w", err)
			}
		}
		p.noteLoggedLocked()
	}
	s.appliedSeq = seq
	s.applyLocked(&c)
	return nil
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
	// Loading compiles the snapshot's active entry too, so a snapshot
	// that cannot be restored is refused before anything changes.
	snap, rt, err := loadSnapshot(payload)
	if err != nil {
		return fmt.Errorf("store: shipped snapshot: %w", err)
	}
	if snap.LastSeq != seq {
		return fmt.Errorf("store: shipped snapshot covers seq %d, advertised as %d", snap.LastSeq, seq)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appliedSeq >= seq {
		return nil
	}
	if p := s.persist; p != nil {
		if _, err := wal.WriteSnapshot(p.dir, seq, payload); err != nil {
			return fmt.Errorf("store: persist shipped snapshot: %w", err)
		}
		if err := p.log.SkipTo(seq + 1); err != nil {
			return fmt.Errorf("store: reset replica wal: %w", err)
		}
		if _, err := wal.PruneSnapshots(p.dir, snapshotsToKeep); err != nil {
			return fmt.Errorf("store: prune replica snapshots: %w", err)
		}
		p.lastSnapSeq = seq
		p.sinceSnap = 0
	}
	s.appliedSeq = seq
	s.restoreLocked(snap, rt)
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
