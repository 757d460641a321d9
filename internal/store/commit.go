// Group-commit pipeline for the durable write path. The serial design
// (PR 3) acknowledged one fsync per append: every writer JSON-encoded
// its record, appended it to the WAL and fsynced while holding the
// store's write lock, so N concurrent writers paid N full fsyncs plus
// N lock handoffs. Group commit restructures that into a staged
// pipeline:
//
//  1. Writers encode their walRecord OUTSIDE s.mu into a pooled
//     buffer (newCommitReq, appendWalRecord) and stage the encoded
//     payload on the store's commit queue.
//  2. A leader writer — the first to find the queue without a leader —
//     takes ownership of everything staged, appends the whole batch
//     to the WAL with one wal.AppendBatch (one buffer encode, one
//     Write), fsyncs ONCE under FsyncAlways, then applies all records
//     under a single s.mu critical section in batch order and
//     releases every waiter with its result.
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
//     next leader can start — so single-threaded replay still
//     reconstructs concurrent history exactly.
//   - Deletes purge the summary cache in the same critical section
//     that removes the item, exactly as before.
//
// Each store.Store owns one commit queue, so a sharded store
// (internal/shard) gets one independent committer per shard and the
// shards' group commits overlap in the kernel.

package store

import (
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"time"

	"osars/internal/extract"
	"osars/internal/jsonscan"
	"osars/internal/model"
	"osars/internal/ontoreg"
)

// errStoreClosed is returned to writers that race Close.
var errStoreClosed = errors.New("store is closed")

// commitReq is one writer's staged write: the pre-encoded WAL payload
// plus everything the leader needs to apply the record in memory and
// hand the result back.
type commitReq struct {
	op        string
	id        string
	name      string
	ts        time.Time
	raws      []extract.RawReview // raw reviews (appends only)
	annotated []model.Review      // pre-annotated reviews (appends only)
	annVer    string              // runtime version that annotated them
	rt        *ontoreg.Runtime    // runtime to activate (opActivate only)
	enc       *encodeBuf          // pooled encode scratch; payload aliases it
	payload   []byte              // JSON walRecord, valid until release()

	// Results, written by the committing leader before it flips done
	// under the queue lock; the staging writer reads them after
	// observing done.
	done    bool
	err     error
	stats   ItemStats // append result
	existed bool      // delete result
}

// encodeBuf is pooled scratch for off-lock walRecord encoding.
type encodeBuf struct{ b []byte }

var encodePool = sync.Pool{New: func() any { return new(encodeBuf) }}

var commitReqPool = sync.Pool{New: func() any { return new(commitReq) }}

// newCommitReq builds a staged append or delete request, encoding its
// record into a pooled buffer. Called by writers before they touch any
// store lock.
func newCommitReq(op, id, name string, ts time.Time, reviews []extract.RawReview, annotated []model.Review, annVer string) (*commitReq, error) {
	return stageReq(commitReq{op: op, id: id, name: name, ts: ts, raws: reviews, annotated: annotated, annVer: annVer}, nil)
}

// newActivateReq builds a staged ontology-activation request. The
// record embeds the runtime's canonical entry payload, so replay and
// replicas reconstruct the exact runtime from the log alone.
func newActivateReq(rt *ontoreg.Runtime, ts time.Time) (*commitReq, error) {
	return stageReq(commitReq{op: opActivate, ts: ts, rt: rt}, rt.Payload)
}

// stageReq returns a pooled copy of req with its record, and entry for
// an activation, encoded as its payload.
func stageReq(req commitReq, entry json.RawMessage) (*commitReq, error) {
	e := encodePool.Get().(*encodeBuf)
	payload, err := appendWalRecord(e.b[:0], req.op, req.id, req.name, req.ts, req.raws, entry)
	e.b = payload
	if err != nil {
		encodePool.Put(e)
		return nil, err
	}
	r := commitReqPool.Get().(*commitReq)
	*r = req
	r.enc, r.payload = e, payload
	return r, nil
}

// appendWalRecord appends the walRecord of op as json.Marshal writes
// it, with its reviews taken from reviews; TestWalRecordRoundTrip holds
// it to json.Encoder's bytes. The entry of an activation is written as
// Marshal writes a json.RawMessage.
func appendWalRecord(b []byte, op, id, name string, ts time.Time, reviews []extract.RawReview, entry json.RawMessage) ([]byte, error) {
	var w jsonWriter
	b = jsonscan.AppendString(append(b, `{"op":`...), op)
	b = jsonscan.AppendString(append(b, `,"id":`...), id)
	if name != "" {
		b = jsonscan.AppendString(append(b, `,"name":`...), name)
	}
	b = w.time(append(b, `,"ts":`...), ts)
	if len(reviews) > 0 {
		b = append(b, `,"reviews":[`...)
		for i := range reviews {
			if i > 0 {
				b = append(b, ',')
			}
			b = w.raw(b, &reviews[i])
		}
		b = append(b, ']')
	}
	if len(entry) > 0 {
		b = w.rawJSON(append(b, `,"entry":`...), entry)
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
		switch r.op {
		case opAppend:
			r.stats = s.applyAppendLocked(r.id, r.name, r.raws, r.annotated, r.annVer, r.ts)
			s.appends.Add(1)
		case opDelete:
			if _, ok := s.items[r.id]; ok {
				delete(s.items, r.id)
				s.cache.PurgeItem(r.id)
				r.existed = true
			}
		case opActivate:
			s.setRuntimeLocked(r.rt)
		}
		p.noteLoggedLocked(firstSeq + uint64(i))
	}
	s.mu.Unlock()
}

// commitAppend is the durable ingest path: no-op filter, off-lock
// encode, group commit. Returns the post-apply item stats.
func (p *persister) commitAppend(id, name string, ts time.Time, reviews []extract.RawReview, annotated []model.Review, annVer string) (ItemStats, error) {
	s := p.s
	// Appending nothing to an existing item without a rename is a
	// no-op and must not reach the log. (A write that races this check
	// and turns out to be a no-op at apply time still applies as a
	// no-op — applyAppendLocked guards the generation — so the record
	// is harmless, just one wasted log frame.)
	s.mu.RLock()
	if e, ok := s.items[id]; ok && len(annotated) == 0 && (name == "" || name == e.item.Name) {
		st := e.stats()
		s.mu.RUnlock()
		return st, nil
	}
	s.mu.RUnlock()

	req, err := newCommitReq(opAppend, id, name, ts, reviews, annotated, annVer)
	if err != nil {
		return ItemStats{}, err
	}
	err = p.q.commit(p, req)
	stats := req.stats
	req.release()
	return stats, err
}

// commitActivate is the durable ontology-activation path: the entry
// payload is logged (and synced) through the same group-commit queue
// appends use, so WAL order equals apply order — an append staged
// after an activation is annotated under the old runtime but applied
// after the swap, which applyAppendLocked resolves by marking the item
// mixed (it re-annotates lazily).
func (p *persister) commitActivate(rt *ontoreg.Runtime) error {
	req, err := newActivateReq(rt, time.Now())
	if err != nil {
		return err
	}
	err = p.q.commit(p, req)
	req.release()
	return err
}

// commitDelete is the durable delete path: existence filter, off-lock
// encode, group commit. Reports whether the item existed at apply
// time (so of two racing deletes exactly one reports true).
func (p *persister) commitDelete(id string, ts time.Time) (bool, error) {
	s := p.s
	// Deleting a missing item is a no-op and must not reach the log.
	s.mu.RLock()
	_, ok := s.items[id]
	s.mu.RUnlock()
	if !ok {
		return false, nil
	}

	req, err := newCommitReq(opDelete, id, "", ts, nil, nil, "")
	if err != nil {
		return false, err
	}
	err = p.q.commit(p, req)
	existed := req.existed
	req.release()
	return existed, err
}
