// Group-commit pipeline for the durable write path. The serial design
// (PR 3) acknowledged one fsync per append: every writer JSON-encoded
// its record, appended it to the WAL and fsynced while holding the
// store's write lock, so N concurrent writers paid N full fsyncs plus
// N lock handoffs. Group commit restructures that into a staged
// pipeline:
//
//  1. A writer (Store.write) encodes its change's walRecord OUTSIDE
//     s.mu into a pooled buffer (stage, appendWalRecord) and stages
//     the encoded payload on the store's commit queue
//     (persister.commit).
//  2. A leader writer — the first to find the queue without a leader —
//     takes ownership of everything staged, appends the whole batch
//     to the WAL with one wal.AppendBatch (one buffer encode, one
//     Write), fsyncs ONCE under FsyncAlways, then applies every change
//     through applyLocked under a single s.mu critical section in
//     batch order and releases every waiter with its result.
//  3. Writers that arrive while a commit is in flight stage their
//     requests and block; when the leader finishes, one of them
//     becomes the next leader for the accumulated batch. Under load
//     the batch size approaches the writer count, so the per-writer
//     fsync cost shrinks toward fsync/N.
//
// Invariants preserved from the serial design:
//
//   - No append is acknowledged before its record is durable: waiters
//     are released only after the batch Sync returns (FsyncAlways).
//   - WAL order equals apply order: a single leader runs at a time,
//     sequence numbers are assigned in batch order by AppendBatch,
//     and the leader applies the batch in that same order before the
//     next leader can start — so single-threaded replay, which applies
//     each record through the same applyLocked, still reconstructs
//     concurrent history exactly.
//   - Deletes purge the summary cache in the same critical section
//     that removes the item, exactly as before.
//
// Each store.Store owns one commit queue, so a sharded store
// (internal/shard) gets one independent committer per shard and the
// shards' group commits overlap in the kernel.

package store

import (
	"errors"
	"runtime"
	"sync"

	"osars/internal/jsonscan"
)

// errStoreClosed is returned to writers that race Close.
var errStoreClosed = errors.New("store is closed")

// commitReq is one writer's staged change with its pre-encoded WAL
// payload, and the result the leader hands back.
type commitReq struct {
	change
	enc     *encodeBuf // pooled encode scratch; payload aliases it
	payload []byte     // JSON walRecord, valid until release()

	// Results, written by the committing leader before it flips done
	// under the queue lock; the staging writer reads them after
	// observing done. stats and applied are what applyLocked returned.
	done    bool
	err     error
	stats   ItemStats
	applied bool
}

// encodeBuf is pooled scratch for off-lock walRecord encoding.
type encodeBuf struct{ b []byte }

var encodePool = sync.Pool{New: func() any { return new(encodeBuf) }}

var commitReqPool = sync.Pool{New: func() any { return new(commitReq) }}

// stage returns a pooled request for c with its record encoded as the
// payload. Called by writers before they touch any store lock.
func stage(c change) (*commitReq, error) {
	e := encodePool.Get().(*encodeBuf)
	payload, err := appendWalRecord(e.b[:0], &c)
	e.b = payload
	if err != nil {
		encodePool.Put(e)
		return nil, err
	}
	r := commitReqPool.Get().(*commitReq)
	r.change, r.enc, r.payload = c, e, payload
	return r, nil
}

// appendWalRecord appends the walRecord that logs c as json.Marshal
// writes it, with its reviews in their logged form;
// TestWalRecordRoundTrip holds it to json.Encoder's bytes. The entry of
// an activation, its runtime's payload, is written as Marshal writes a
// json.RawMessage.
func appendWalRecord(b []byte, c *change) ([]byte, error) {
	var w jsonWriter
	b = jsonscan.AppendString(append(b, `{"op":`...), c.op)
	b = jsonscan.AppendString(append(b, `,"id":`...), c.id)
	if c.name != "" {
		b = jsonscan.AppendString(append(b, `,"name":`...), c.name)
	}
	b = w.time(append(b, `,"ts":`...), c.ts)
	if len(c.raws) > 0 {
		b = append(b, `,"reviews":[`...)
		for i := range c.raws {
			if i > 0 {
				b = append(b, ',')
			}
			b = w.raw(b, &c.raws[i])
		}
		b = append(b, ']')
	}
	if c.rt != nil && len(c.rt.Payload) > 0 {
		b = w.rawJSON(append(b, `,"entry":`...), c.rt.Payload)
	}
	return append(b, '}'), w.err
}

// release returns the request and its encode scratch to their pools.
// Only the staging writer may call it, after commit() returned.
func (r *commitReq) release() {
	if r.enc != nil {
		encodePool.Put(r.enc)
	}
	*r = commitReq{}
	commitReqPool.Put(r)
}

// commitQueue is the leader-writer group-commit coordinator. There is
// no dedicated goroutine: the first writer to find the queue without a
// leader commits the staged batch itself, so a lone writer pays no
// handoff at all, and writers arriving during a commit pile into the
// next batch.
type commitQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []*commitReq // staged, not yet owned by a leader
	spare  []*commitReq // recycled backing array for queue
	leader bool         // a leader is currently committing
	closed bool
}

func (c *commitQueue) init() { c.cond.L = &c.mu }

// commit stages req and blocks until a leader — possibly this very
// writer — has made it durable and applied it. Returns the commit
// error; per-request results are on req.
func (c *commitQueue) commit(p *persister, req *commitReq) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errStoreClosed
	}
	if c.queue == nil && c.spare != nil {
		c.queue, c.spare = c.spare, nil
	}
	c.queue = append(c.queue, req)
	yielded := false
	for {
		if req.done {
			c.mu.Unlock()
			return req.err
		}
		if c.leader {
			c.cond.Wait()
			continue
		}
		// About to become leader. If other writers were staged with us,
		// yield the scheduler once first: writers that are mid-encode on
		// a busy machine get to join, growing the batch (= fewer fsyncs)
		// for one ~µs deferral. Correctness never depends on this — it
		// only shifts where the batch boundary falls.
		if !yielded && len(c.queue) > 1 {
			yielded = true
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			continue
		}
		// No leader: take the whole staged queue (which includes our
		// own request) and commit it.
		c.leader = true
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()

		p.commitBatch(batch)

		c.mu.Lock()
		for i, r := range batch {
			r.done = true
			batch[i] = nil // don't pin requests via the recycled array
		}
		c.spare = batch[:0]
		c.leader = false
		c.cond.Broadcast()
	}
}

// close refuses new commits and waits for every staged request to
// finish committing. Called by Store.Close before the WAL is closed.
func (c *commitQueue) close() {
	c.mu.Lock()
	c.closed = true
	for c.leader || len(c.queue) > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// commitStage names the kill points of a batch commit, in order. Tests
// hook them to snapshot the on-disk state mid-commit and prove the
// durability invariant across simulated crashes.
type commitStage int

const (
	// stageWritten: the batch is written to the WAL but not yet
	// synced. A crash here may persist any frame prefix of the batch;
	// nothing in it has been acknowledged.
	stageWritten commitStage = iota
	// stageSynced: the batch is durable but no waiter has been
	// released or applied yet.
	stageSynced
)

// commitBatch makes one batch durable and applies it: one AppendBatch,
// one Sync (FsyncAlways), then every record applied in WAL order under
// a single s.mu critical section. On error nothing is applied and
// every request carries the error. Runs with commitQueue.leader held,
// so at most one commitBatch is in flight per store.
func (p *persister) commitBatch(batch []*commitReq) {
	payloads := p.payloads[:0]
	for _, r := range batch {
		payloads = append(payloads, r.payload)
	}
	firstSeq, err := p.log.AppendBatch(payloads)
	for i := range payloads {
		payloads[i] = nil
	}
	p.payloads = payloads[:0]
	if err == nil {
		if h := p.testCommitHook; h != nil {
			h(stageWritten)
		}
		if p.policy == FsyncAlways {
			err = p.log.Sync()
		}
	}
	if err != nil {
		for _, r := range batch {
			r.err = err
		}
		return
	}
	if h := p.testCommitHook; h != nil {
		h(stageSynced)
	}

	s := p.s
	s.metrics.commitBatch.Observe(float64(len(batch)))
	s.mu.Lock()
	for i, r := range batch {
		r.stats, r.applied = s.applyLocked(&r.change)
		s.appliedSeq = firstSeq + uint64(i)
		p.noteLoggedLocked()
	}
	s.mu.Unlock()
}

// commit is the durable write path: it stages c and returns what
// applyLocked returned for it once a leader has made it durable and
// applied it.
func (p *persister) commit(c change) (ItemStats, bool, error) {
	req, err := stage(c)
	if err != nil {
		return ItemStats{}, false, err
	}
	err = p.q.commit(p, req)
	stats, applied := req.stats, req.applied
	req.release()
	return stats, applied, err
}
