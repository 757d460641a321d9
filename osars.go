// Package osars is an ontology- and sentiment-aware review
// summarization library, a from-scratch Go reproduction of
//
//	Le, Hristidis, Young — "Ontology- and Sentiment-Aware Review
//	Summarization", ICDE 2017 (full version: Le, Young, Hristidis,
//	WISE 2019).
//
// Given an item's customer reviews, a domain concept hierarchy (DAG)
// and a sentiment estimator, it selects the k most representative
// concept-sentiment pairs, sentences or whole reviews by minimizing
// the ontology-aware coverage cost of Definition 2, using the paper's
// greedy, randomized-rounding or exact ILP algorithm.
//
// Quick start:
//
//	ont := dataset.CellPhoneOntology()           // or build your own
//	s, _ := osars.New(osars.Config{Ontology: ont})
//	item := s.AnnotateItem("phone-1", "Acme Phone", reviews)
//	sum, _ := s.Summarize(item, 5, osars.Sentences, osars.MethodGreedy)
//	for _, line := range sum.Sentences { fmt.Println(line) }
package osars

import (
	"fmt"
	"math"

	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/ontoreg"
	"osars/internal/sentiment"
	"osars/internal/store"
)

// Re-exported building blocks, so library users need only this
// package plus internal/ontology for building hierarchies.
type (
	// Ontology is the rooted concept DAG (see internal/ontology for
	// the Builder API).
	Ontology = ontology.Ontology
	// ConceptID identifies a concept within an Ontology.
	ConceptID = ontology.ConceptID
	// Pair is a concept-sentiment pair.
	Pair = model.Pair
	// Item is an annotated set of reviews ready for summarization.
	Item = model.Item
	// Review is one raw input review.
	Review = extract.RawReview
	// Estimator scores a tokenized sentence in [-1, +1].
	Estimator = sentiment.Estimator
	// Granularity selects what a summary is made of.
	Granularity = model.Granularity
	// Summary is a computed review summary. The stateless calls and a
	// Store return the same type; a stateless summary has Generation 0.
	Summary = store.Summary
)

// Granularities of the two coverage problems (§2).
const (
	// Pairs selects k concept-sentiment pairs (k-Pairs Coverage).
	Pairs = model.GranularityPairs
	// Sentences selects k review sentences (k-Sentences Coverage).
	Sentences = model.GranularitySentences
	// Reviews selects k whole reviews (k-Reviews Coverage).
	Reviews = model.GranularityReviews
)

// Method selects the summarization algorithm (§4). It is the store's
// method type, so one value selects the algorithm on the stateless
// and the stored paths alike.
type Method = store.Method

// The paper's three algorithms.
const (
	// MethodGreedy is Algorithm 2: fast, within a Wolsey-type factor
	// of optimal (Theorem 4); the paper's recommended default.
	MethodGreedy = store.MethodGreedy
	// MethodRR is Algorithm 1: LP relaxation + randomized rounding
	// (Theorem 3 bound).
	MethodRR = store.MethodRR
	// MethodILP solves the k-medians integer program exactly.
	MethodILP = store.MethodILP
	// MethodLocalSearch is an extension beyond the paper: greedy
	// followed by 1-swap local search (Arya et al. 2004) — never worse
	// than greedy, usually closing most of its gap to optimal.
	MethodLocalSearch = store.MethodLocalSearch
)

// Config configures a Summarizer.
type Config struct {
	// Ontology is the domain concept hierarchy. Required.
	Ontology *Ontology
	// Epsilon is the sentiment threshold ε of Definition 1
	// (default 0.5, the elbow the paper selects in §5.3).
	Epsilon float64
	// Lexicon optionally replaces the built-in opinion-word table with
	// a custom word → prior-polarity map (values in [-1, +1]). Mutually
	// exclusive with Estimator.
	Lexicon map[string]float64
	// Estimator scores sentence sentiment (default: the unsupervised
	// lexicon scorer over Lexicon, or the built-in table).
	Estimator Estimator
	// Seed drives randomized rounding (default 1).
	Seed int64
}

// Summarizer is the top-level entry point. Safe for concurrent use.
type Summarizer struct {
	rt   *ontoreg.Runtime
	seed int64
}

// New validates the config and builds a Summarizer.
func New(cfg Config) (*Summarizer, error) {
	if cfg.Ontology == nil {
		return nil, fmt.Errorf("osars: Config.Ontology is required")
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.5
	}
	if cfg.Epsilon < 0 || math.IsNaN(cfg.Epsilon) || math.IsInf(cfg.Epsilon, 0) {
		return nil, fmt.Errorf("osars: Epsilon must be positive and finite, got %v", cfg.Epsilon)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var rt *ontoreg.Runtime
	if cfg.Estimator == nil {
		// The default (lexicon-scored) configuration is expressible as a
		// registry entry, so the summarizer's runtime gets a real content
		// version: a store opened from it keys its summary cache by that
		// version and can durably re-activate the same entry later.
		ent, err := ontoreg.NewEntry(ontoreg.ConfigVersion, cfg.Ontology, cfg.Lexicon, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		rt = ent.Runtime()
	} else {
		if len(cfg.Lexicon) > 0 {
			return nil, fmt.Errorf("osars: Config.Lexicon and Config.Estimator are mutually exclusive")
		}
		// A custom estimator cannot be serialized into an entry; the
		// runtime serves fine but cannot be durably activated.
		rt = ontoreg.ConfigRuntime(
			model.Metric{Ont: cfg.Ontology, Epsilon: cfg.Epsilon},
			extract.NewPipeline(extract.NewMatcher(cfg.Ontology), cfg.Estimator),
		)
	}
	return &Summarizer{rt: rt, seed: cfg.Seed}, nil
}

// Metric exposes the configured Definition-1/2 metric (for custom
// evaluation).
func (s *Summarizer) Metric() model.Metric { return s.rt.Metric }

// Runtime returns the summarizer's compiled ontology runtime: the
// (ontology, lexicon, ε) triple plus its content version. Stores
// opened from this summarizer start on it; pass other runtimes
// (resolved from an OntologyRegistry) to AnnotateItemWith /
// SummarizeWith for per-request multi-domain serving.
func (s *Summarizer) Runtime() *OntologyRuntime { return s.rt }

// AnnotateItem runs the extraction pipeline (§5.1): sentence
// splitting, ontology concept matching and sentence-level sentiment.
// Annotation is fanned out across GOMAXPROCS workers (the pipeline's
// matcher and estimator are read-only); the result is deterministic
// and identical to sequential annotation.
func (s *Summarizer) AnnotateItem(id, name string, reviews []Review) *Item {
	return s.rt.Pipeline.AnnotateItemParallel(id, name, reviews, 0)
}

// Summarize selects the k most representative units of the item at
// the given granularity. k is clamped to the number of available
// candidates.
func (s *Summarizer) Summarize(item *Item, k int, g Granularity, m Method) (*Summary, error) {
	return s.SummarizeWith(s.rt, item, k, g, m)
}

// AnnotateItemWith is AnnotateItem under an explicit ontology runtime
// (per-request domain selection): the item is annotated by rt's
// pipeline instead of the summarizer's own.
func (s *Summarizer) AnnotateItemWith(rt *OntologyRuntime, id, name string, reviews []Review) *Item {
	return rt.Pipeline.AnnotateItemParallel(id, name, reviews, 0)
}

// SummarizeWith is Summarize under an explicit ontology runtime: the
// coverage graph is built with rt's metric. The item must have been
// annotated under the SAME runtime (its pair ConceptIDs index rt's
// ontology).
func (s *Summarizer) SummarizeWith(rt *OntologyRuntime, item *Item, k int, g Granularity, m Method) (*Summary, error) {
	return store.Solve(rt, item, k, g, m, s.seed)
}

// DescribePair renders a pair like "screen resolution = +0.75" using
// the configured ontology.
func (s *Summarizer) DescribePair(p Pair) string {
	return fmt.Sprintf("%s = %+.2f", s.rt.Metric.Ont.Name(p.Concept), p.Sentiment)
}
