package osars

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSummarizeBatchMatchesSequential(t *testing.T) {
	s := testSummarizer(t)
	var reqs []BatchRequest
	for i := 0; i < 12; i++ {
		item := s.AnnotateItem(fmt.Sprintf("p%d", i), "Phone", testReviews())
		reqs = append(reqs, BatchRequest{
			Item:        item,
			K:           1 + i%3,
			Granularity: Granularity(i % 3),
			Method:      MethodGreedy,
		})
	}
	results := s.SummarizeBatch(reqs, 4)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want, err := s.Summarize(reqs[i].Item, reqs[i].K, reqs[i].Granularity, reqs[i].Method)
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary.Cost != want.Cost {
			t.Fatalf("request %d: batch cost %v, sequential %v", i, r.Summary.Cost, want.Cost)
		}
		if len(r.Summary.Indices) != len(want.Indices) {
			t.Fatalf("request %d: selections differ", i)
		}
	}
}

func TestSummarizeBatchPropagatesErrors(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p", "Phone", testReviews())
	results := s.SummarizeBatch([]BatchRequest{
		{Item: item, K: 2, Granularity: Sentences, Method: MethodGreedy},
		{Item: item, K: -1, Granularity: Sentences, Method: MethodGreedy},     // invalid k
		{Item: item, K: 1, Granularity: Pairs, Method: Method(42)},            // invalid method
		{Item: item, K: 2, Granularity: Granularity(9), Method: MethodGreedy}, // invalid granularity
	}, 2)
	if results[0].Err != nil || results[0].Summary == nil {
		t.Fatalf("valid request failed: %+v", results[0])
	}
	if results[1].Err == nil || results[2].Err == nil || results[3].Err == nil {
		t.Fatal("invalid requests did not error")
	}
}

// TestSummarizeBatchCtxPreCancelled: with an already-cancelled
// context, no work runs and every slot carries ctx.Err().
func TestSummarizeBatchCtxPreCancelled(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p", "Phone", testReviews())
	reqs := make([]BatchRequest, 8)
	for i := range reqs {
		reqs[i] = BatchRequest{Item: item, K: 2, Granularity: Sentences, Method: MethodGreedy}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := s.SummarizeBatchCtx(ctx, reqs, 3)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) || r.Summary != nil {
			t.Fatalf("slot %d = %+v, want context.Canceled", i, r)
		}
	}
}

// TestSummarizeBatchCtxMidCancel cancels while the batch is running:
// the pool must drain promptly, every slot must be populated, and each
// result is exactly one of {summary, ctx error}.
func TestSummarizeBatchCtxMidCancel(t *testing.T) {
	s := testSummarizer(t)
	// A corpus big enough that a single solve outlasts the deadline,
	// so cancellation reliably lands mid-batch.
	var big []Review
	for i := 0; i < 100; i++ {
		for _, r := range testReviews() {
			r.ID = fmt.Sprintf("%s-%d", r.ID, i)
			big = append(big, r)
		}
	}
	item := s.AnnotateItem("p", "Phone", big)
	reqs := make([]BatchRequest, 64)
	for i := range reqs {
		reqs[i] = BatchRequest{Item: item, K: 3, Granularity: Sentences, Method: MethodGreedy}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	results := s.SummarizeBatchCtx(ctx, reqs, 2)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	cancelled := 0
	for i, r := range results {
		switch {
		case r.Err == nil && r.Summary != nil: // completed before the deadline
		case errors.Is(r.Err, context.DeadlineExceeded) && r.Summary == nil:
			cancelled++
		default:
			t.Fatalf("slot %d = %+v: neither success nor ctx error", i, r)
		}
	}
	if cancelled == 0 {
		t.Fatal("no slot was cancelled — deadline did not land mid-batch")
	}
}

// TestSummarizeBatchRawReviews exercises the raw-review batch path:
// requests carrying Reviews instead of a pre-annotated Item are
// annotated by the batch's shared pool and must produce exactly the
// same summaries as annotate-then-batch.
func TestSummarizeBatchRawReviews(t *testing.T) {
	s := testSummarizer(t)
	raws := testReviews()
	var reqs []BatchRequest
	for i := 0; i < 9; i++ {
		reqs = append(reqs, BatchRequest{
			ItemID:      fmt.Sprintf("p%d", i),
			ItemName:    "Phone",
			Reviews:     raws,
			K:           1 + i%3,
			Granularity: Granularity(i % 3),
			Method:      MethodGreedy,
		})
	}
	results := s.SummarizeBatch(reqs, 3)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		item := s.AnnotateItem(reqs[i].ItemID, reqs[i].ItemName, raws)
		want, err := s.Summarize(item, reqs[i].K, reqs[i].Granularity, reqs[i].Method)
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary.Cost != want.Cost {
			t.Fatalf("request %d: raw-review batch cost %v, sequential %v", i, r.Summary.Cost, want.Cost)
		}
	}
}

// TestSummarizeBatchItemWinsOverReviews pins the documented precedence:
// when both Item and Reviews are set, Item is used and Reviews ignored.
func TestSummarizeBatchItemWinsOverReviews(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p", "Phone", testReviews())
	garbage := []Review{{ID: "g", Text: "zzzz qqqq", Rating: 0}}
	results := s.SummarizeBatch([]BatchRequest{
		{Item: item, Reviews: garbage, K: 2, Granularity: Sentences, Method: MethodGreedy},
	}, 1)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	want, err := s.Summarize(item, 2, Sentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Summary.Cost != want.Cost {
		t.Fatal("Item did not take precedence over Reviews")
	}
}

// TestSummarizeBatchMoreWorkersThanRequests: the worker count must be
// clamped to len(reqs); results stay correct and complete.
func TestSummarizeBatchMoreWorkersThanRequests(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p", "Phone", testReviews())
	reqs := []BatchRequest{
		{Item: item, K: 1, Granularity: Pairs, Method: MethodGreedy},
		{ItemID: "raw", ItemName: "Phone", Reviews: testReviews(), K: 2, Granularity: Sentences, Method: MethodGreedy},
	}
	results := s.SummarizeBatch(reqs, 64) // far more workers than requests
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil || r.Summary == nil {
			t.Fatalf("slot %d = %+v", i, r)
		}
	}
}

func TestSummarizeBatchEmptyAndDefaults(t *testing.T) {
	s := testSummarizer(t)
	if got := s.SummarizeBatch(nil, 0); len(got) != 0 {
		t.Fatalf("empty batch = %v", got)
	}
	item := s.AnnotateItem("p", "Phone", testReviews())
	// workers <= 0 must still work (defaults to GOMAXPROCS).
	results := s.SummarizeBatch([]BatchRequest{
		{Item: item, K: 1, Granularity: Pairs, Method: MethodGreedy},
	}, -3)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
}
