package osars

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"osars/internal/model"
)

// BatchRequest is one unit of work for SummarizeBatch. Exactly one of
// Item (a pre-annotated item) or Reviews (raw reviews, annotated by
// the batch's shared annotation pool before solving) should be set;
// when both are set, Item wins and Reviews is ignored. ItemID/ItemName
// label the item built from Reviews.
type BatchRequest struct {
	Item        *Item
	ItemID      string
	ItemName    string
	Reviews     []Review
	K           int
	Granularity Granularity
	Method      Method
}

// BatchResult pairs a request's summary with its error; exactly one of
// the two fields is set.
type BatchResult struct {
	Summary *Summary
	Err     error
}

// SummarizeBatch runs many summarizations concurrently with a bounded
// worker pool and returns results aligned with the requests. workers ≤
// 0 uses GOMAXPROCS; the count is clamped to len(reqs). The Summarizer
// is safe to share across workers: each request builds its own
// coverage graph.
func (s *Summarizer) SummarizeBatch(reqs []BatchRequest, workers int) []BatchResult {
	return s.SummarizeBatchCtx(context.Background(), reqs, workers)
}

// annotateBatch resolves every request to an annotated *Item. Raw-
// review requests are annotated through ONE worker pool shared across
// the whole batch (flattened to per-review jobs), rather than each
// solve worker annotating its own item ad hoc: a batch of many small
// items still saturates the cores, and annotation parallelism never
// multiplies with solve parallelism. Returns early (with items
// partially filled) if ctx fires; the caller's dispatch loop then
// fails every slot with ctx.Err() before any partial item is solved.
func (s *Summarizer) annotateBatch(ctx context.Context, reqs []BatchRequest, workers int) []*Item {
	items := make([]*Item, len(reqs))
	type job struct{ req, rev int }
	var jobs []job
	for i := range reqs {
		if reqs[i].Item != nil {
			items[i] = reqs[i].Item
			continue
		}
		items[i] = &Item{ID: reqs[i].ItemID, Name: reqs[i].ItemName}
		if n := len(reqs[i].Reviews); n > 0 {
			items[i].Reviews = make([]model.Review, n)
			for j := 0; j < n; j++ {
				jobs = append(jobs, job{i, j})
			}
		}
	}
	if len(jobs) == 0 {
		return items
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				rr := &reqs[jobs[j].req].Reviews[jobs[j].rev]
				items[jobs[j].req].Reviews[jobs[j].rev] =
					s.rt.Pipeline.AnnotateReview(rr.ID, rr.Text, rr.Rating)
			}
		}()
	}
	wg.Wait()
	return items
}

// SummarizeBatchCtx is SummarizeBatch with cancellation. When ctx is
// cancelled, in-flight summarizations run to completion (workers
// drain), no new ones start, and every unprocessed slot carries
// ctx.Err(). The result slice is always fully populated and aligned
// with reqs.
func (s *Summarizer) SummarizeBatchCtx(ctx context.Context, reqs []BatchRequest, workers int) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Clamp: more workers than requests only spawns goroutines that
	// immediately exit, but the annotation pool below keys off the
	// count, so keep it tight.
	if workers > len(reqs) {
		workers = len(reqs)
	}
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}

	// Phase 1: resolve raw-review requests through the shared
	// annotation pool (full GOMAXPROCS — annotation is the cold path's
	// dominant cost and the solve pool hasn't started yet).
	items := s.annotateBatch(ctx, reqs, runtime.GOMAXPROCS(0))

	// Phase 2: solve with a bounded worker pool.
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A job may have been handed out just as the context
				// fired; fail it fast rather than solving doomed work.
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Err: err}
					continue
				}
				sum, err := s.Summarize(items[i], reqs[i].K, reqs[i].Granularity, reqs[i].Method)
				results[i] = BatchResult{Summary: sum, Err: err}
			}
		}()
	}
dispatch:
	for i := range reqs {
		select {
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				results[j] = BatchResult{Err: ctx.Err()}
			}
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	return results
}
