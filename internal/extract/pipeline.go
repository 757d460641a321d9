package extract

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

	"osars/internal/model"
	"osars/internal/sentiment"
	"osars/internal/text"
)

// Pipeline composes sentence splitting, concept matching and sentence
// sentiment estimation into the review → concept-sentiment-pairs
// mapping of §5.1: "to compute the sentiment around a concept, we
// compute the sentiment of the containing sentence and assign this
// sentiment to the concept."
//
// Build a Pipeline with NewPipeline, and do not change its fields
// afterwards: NewPipeline compiles them. When the estimator is a
// sentiment.Lexicon and the matcher is unstemmed, it extends the
// matcher's token vocabulary with the lexicon's words, and
// AnnotateReview then annotates ASCII text in one pass over interned
// token IDs. Every other input takes the []string path (SplitSentences
// → Tokenize → MatchTokens → EstimateSentence), which is also what a
// Pipeline built as a struct literal runs. Both give identical output
// (TestAnnotateMatchesReference, FuzzAnnotateMatchesReference).
//
// Concurrency invariant: a Pipeline is safe for concurrent use. The
// Matcher and the compiled vocabulary are immutable after
// construction, and every Estimator implementation must be read-only
// in EstimateSentence (the built-in Lexicon and Ridge estimators are:
// both only read state fixed at construction/training time).
// AnnotateReviews relies on this to fan annotation out across a worker
// pool; TestPipelineParallelMatchesSequential exercises the invariant
// under -race.
type Pipeline struct {
	Matcher   *Matcher
	Estimator sentiment.Estimator
	// lex is the compiled lexicon of the one-pass path; nil selects
	// the []string path.
	lex *lexVocab
}

// NewPipeline wires a matcher with an estimator. A nil estimator
// defaults to the unsupervised lexicon scorer.
func NewPipeline(m *Matcher, e sentiment.Estimator) *Pipeline {
	if e == nil {
		e = sentiment.Lexicon{}
	}
	p := &Pipeline{Matcher: m, Estimator: e}
	if l, ok := e.(sentiment.Lexicon); ok && !m.stem {
		ids := maps.Clone(m.ids)
		p.lex = &lexVocab{m: m, ids: ids, lex: l.Compile(ids)}
	}
	return p
}

// AnnotateSentence extracts the pairs of one raw sentence.
func (p *Pipeline) AnnotateSentence(raw string) model.Sentence {
	tokens := text.Tokenize(raw)
	s := model.Sentence{Text: raw}
	matches := p.Matcher.MatchTokens(tokens)
	if len(matches) == 0 {
		return s
	}
	score := p.Estimator.EstimateSentence(tokens)
	for _, mt := range matches {
		s.Pairs = append(s.Pairs, model.Pair{Concept: mt.Concept, Sentiment: score})
	}
	return s
}

// AnnotateReview splits raw review text into sentences and annotates
// each. rating is the review's star rating normalized to [-1, +1].
func (p *Pipeline) AnnotateReview(id, raw string, rating float64) model.Review {
	if p.lex != nil {
		if r, ok := p.lex.annotate(id, raw, rating); ok {
			return r
		}
	}
	r := model.Review{ID: id, Rating: rating}
	for _, sent := range text.SplitSentences(raw) {
		r.Sentences = append(r.Sentences, p.AnnotateSentence(sent))
	}
	return r
}

// RawReview is one unprocessed review.
type RawReview struct {
	ID     string
	Text   string
	Rating float64
}

// AnnotateReviews annotates a batch of raw reviews across a bounded
// worker pool and returns the annotated reviews in input order —
// output is deterministic and byte-identical to the sequential path
// for any worker count, because each review's annotation is
// independent and workers write only their own result slot.
//
// workers ≤ 0 uses GOMAXPROCS; the count is clamped to len(reviews).
// One review (or one worker) short-circuits to the sequential loop.
func (p *Pipeline) AnnotateReviews(reviews []RawReview, workers int) []model.Review {
	out := make([]model.Review, len(reviews))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reviews) {
		workers = len(reviews)
	}
	if workers <= 1 {
		for i, rr := range reviews {
			out[i] = p.AnnotateReview(rr.ID, rr.Text, rr.Rating)
		}
		return out
	}
	// Atomic work-stealing counter: cheaper than a channel per job and
	// naturally balances reviews of uneven length.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reviews) {
					return
				}
				rr := &reviews[i]
				out[i] = p.AnnotateReview(rr.ID, rr.Text, rr.Rating)
			}
		}()
	}
	wg.Wait()
	return out
}

// AnnotateItem builds the full model.Item from raw reviews,
// sequentially. Use AnnotateItemParallel for large items on servers.
func (p *Pipeline) AnnotateItem(id, name string, reviews []RawReview) *model.Item {
	return &model.Item{ID: id, Name: name, Reviews: p.AnnotateReviews(reviews, 1)}
}

// AnnotateItemParallel is AnnotateItem with annotation fanned out
// across workers (see AnnotateReviews for the worker semantics). The
// resulting Item is identical to the sequential one.
func (p *Pipeline) AnnotateItemParallel(id, name string, reviews []RawReview, workers int) *model.Item {
	return &model.Item{ID: id, Name: name, Reviews: p.AnnotateReviews(reviews, workers)}
}
