// Package repl is the read-replica replication subsystem: it ships
// write-ahead-log frames from a primary to read replicas over HTTP,
// multiplying read/summary capacity horizontally while reusing the
// durability machinery the store already trusts (CRC32C frames,
// contiguous sequence numbers, snapshot-then-replay recovery).
//
// Topology: one primary (a durable store, sharded or not) and N
// replicas. Each shard's WAL is an independent, contiguously numbered
// record stream, so replication is simply "per shard, ship every frame
// after the replica's last applied sequence":
//
//	                       GET /v1/repl/stream?shard=i&after=S
//	primary WAL shard i  ────────────────────────────────────▶  replica shard i
//	(wal.Tail over the      chunked raw WAL frames               ApplyReplicated:
//	 segment files,         (identical byte framing)             local WAL append
//	 concurrent with                                             + applyWalRecord
//	 appends)
//
// The wire format IS the on-disk format: the primary's Tail reads raw
// frames straight out of the segment files and the replica re-verifies
// each frame's CRC32C before applying it, so a disk-to-wire-to-disk
// round trip never re-encodes anything.
//
// Catch-up state machine (per shard, driven by the Follower):
//
//	tailing ──(410 Gone: primary compacted past us)──▶ bootstrapping
//	   ▲          GET /v1/repl/snapshot?shard=i              │
//	   │          InstallSnapshot(seq, payload)              │
//	   └──────────────(resume tail after seq)────────────────┘
//
// with jittered exponential backoff around any connection failure.
// Consistency: replicas are eventually consistent — a read may trail
// the primary by the replication lag, which /v1/repl/status reports
// per shard in sequences and bytes so a load balancer (via /readyz and
// -max-lag-for-ready) can stop routing to a cold or wedged follower.
package repl

import (
	"fmt"

	"osars/internal/shard"
	"osars/internal/store"
)

// Source is the primary side: per-shard access to the WAL streams and
// snapshots being shipped. Build one with NewSource around the serving
// store.
type Source struct {
	shards   []*store.Store
	hashSeed uint64
}

// NewSource wraps a durable primary store: the *shard.ShardedStore
// behind the public osars.Store interface, at any shard count.
func NewSource(st any) (*Source, error) {
	v, ok := st.(*shard.ShardedStore)
	if !ok {
		return nil, fmt.Errorf("repl: unsupported store type %T", st)
	}
	src := &Source{hashSeed: v.HashSeed()}
	for i := 0; i < v.NumShards(); i++ {
		sh := v.Shard(i)
		if _, err := sh.ReplStatus(); err != nil {
			return nil, fmt.Errorf("repl: primary shard %d: %w", i, err)
		}
		src.shards = append(src.shards, sh)
	}
	return src, nil
}

// NumShards returns the number of independent WAL streams.
func (s *Source) NumShards() int { return len(s.shards) }

// HashSeed returns the placement seed (0 for a single shard).
func (s *Source) HashSeed() uint64 { return s.hashSeed }

// Shard returns the store behind stream i.
func (s *Source) Shard(i int) *store.Store { return s.shards[i] }

// Target is the replica side: per-shard apply access to a store opened
// with Replica mode. Build one with NewTarget.
type Target struct {
	shards   []*store.Store
	hashSeed uint64
}

// NewTarget wraps a replica store (every shard must be in replica
// mode).
func NewTarget(st any) (*Target, error) {
	v, ok := st.(*shard.ShardedStore)
	if !ok {
		return nil, fmt.Errorf("repl: unsupported store type %T", st)
	}
	tgt := &Target{hashSeed: v.HashSeed()}
	for i := 0; i < v.NumShards(); i++ {
		sh := v.Shard(i)
		if !sh.Replica() {
			return nil, fmt.Errorf("repl: target shard %d is not in replica mode", i)
		}
		tgt.shards = append(tgt.shards, sh)
	}
	return tgt, nil
}

// NumShards returns the number of shard streams the target consumes.
func (t *Target) NumShards() int { return len(t.shards) }

// HashSeed returns the placement seed (0 for a single shard).
func (t *Target) HashSeed() uint64 { return t.hashSeed }

// Shard returns the replica store behind stream i.
func (t *Target) Shard(i int) *store.Store { return t.shards[i] }
