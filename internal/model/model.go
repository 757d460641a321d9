// Package model defines the data model of the summarization framework
// (paper §2): concept-sentiment pairs, sentences, reviews and items,
// together with the directed pair distance (Definition 1) and the
// summary cost (Definition 2).
package model

import (
	"fmt"
	"math"
	"sort"

	"osars/internal/ontology"
)

// Pair is a concept-sentiment pair (c, s): one occurrence of concept c
// in a review with estimated sentiment s ∈ [-1, +1].
type Pair struct {
	Concept   ontology.ConceptID `json:"concept"`
	Sentiment float64            `json:"sentiment"`
}

func (p Pair) String() string {
	return fmt.Sprintf("(%d, %+.2f)", p.Concept, p.Sentiment)
}

// Sentence is one review sentence with the pairs extracted from it.
type Sentence struct {
	Text  string `json:"text"`
	Pairs []Pair `json:"pairs,omitempty"`
}

// Review is a customer review: an ordered list of sentences plus an
// overall star rating normalized to [-1, +1] (used to train the
// regression sentiment estimator, §5.1).
type Review struct {
	ID        string     `json:"id"`
	Rating    float64    `json:"rating"`
	Sentences []Sentence `json:"sentences"`
}

// Pairs returns all concept-sentiment pairs of the review, in sentence
// order.
func (r *Review) Pairs() []Pair {
	var out []Pair
	for _, s := range r.Sentences {
		out = append(out, s.Pairs...)
	}
	return out
}

// Item is the unit being summarized (a doctor, a phone): a set of
// reviews.
type Item struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Reviews []Review `json:"reviews"`
}

// Pairs returns the multiset P of all concept-sentiment pairs of all
// reviews of the item.
func (it *Item) Pairs() []Pair {
	out := make([]Pair, 0, it.NumPairs())
	for i := range it.Reviews {
		for _, s := range it.Reviews[i].Sentences {
			out = append(out, s.Pairs...)
		}
	}
	return out
}

// NumSentences counts the sentences across all reviews.
func (it *Item) NumSentences() int {
	n := 0
	for i := range it.Reviews {
		n += len(it.Reviews[i].Sentences)
	}
	return n
}

// NumPairs counts the pairs across all reviews: len(it.Pairs()),
// without copying them.
func (it *Item) NumPairs() int {
	n := 0
	for i := range it.Reviews {
		for j := range it.Reviews[i].Sentences {
			n += len(it.Reviews[i].Sentences[j].Pairs)
		}
	}
	return n
}

// WalkSelected finds the selected units in one pass over the item's
// sentences, without flattening the corpus. A unit is a flattened pair
// index (an index into Pairs()) when byPair is set, else a flattened
// sentence index. fn gets the unit's position in sel, its sentence
// and, for a pair, its offset in that sentence. sel need not be
// sorted.
func (it *Item) WalkSelected(sel []int, byPair bool, fn func(i int, s *Sentence, off int)) {
	order := make([]int, len(sel))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sel[order[a]] < sel[order[b]] })
	next, base := 0, 0
	for ri := range it.Reviews {
		for si := range it.Reviews[ri].Sentences {
			if next == len(order) {
				return
			}
			s := &it.Reviews[ri].Sentences[si]
			units := 1
			if byPair {
				units = len(s.Pairs)
			}
			for ; next < len(order) && sel[order[next]] < base+units; next++ {
				fn(order[next], s, sel[order[next]]-base)
			}
			base += units
		}
	}
}

// Granularity selects which unit a summary is made of (§2: "a
// representative is a concept-sentiment pair, or a sentence from a
// review, or a whole review").
type Granularity int

const (
	// GranularityPairs selects k concept-sentiment pairs
	// (k-Pairs Coverage).
	GranularityPairs Granularity = iota
	// GranularitySentences selects k sentences
	// (k-Sentences Coverage).
	GranularitySentences
	// GranularityReviews selects k whole reviews
	// (k-Reviews Coverage).
	GranularityReviews
)

func (g Granularity) String() string {
	switch g {
	case GranularityPairs:
		return "pairs"
	case GranularitySentences:
		return "sentences"
	case GranularityReviews:
		return "reviews"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Infinite is the distance reported between pairs that do not cover
// each other (the ∞ branch of Definition 1).
const Infinite = math.MaxInt32

// Metric evaluates Definition 1 and Definition 2 over one ontology
// with a fixed sentiment threshold ε. Metric is a small value type;
// copy it freely. Its methods are safe for concurrent use.
type Metric struct {
	Ont *ontology.Ontology
	// Epsilon is the sentiment threshold ε > 0: a non-root ancestor
	// pair covers a pair only if their sentiments differ by at most ε.
	Epsilon float64
}

// PairDistance returns the directed distance d(p1, p2) of Definition 1:
//
//	d(r, c2)    if p1's concept is the root r (any sentiments), else
//	d(c1, c2)   if c1 is an ancestor of c2 and |s1-s2| ≤ ε, else
//	Infinite.
//
// A concept counts as an ancestor of itself (distance 0).
func (m Metric) PairDistance(p1, p2 Pair) int {
	if p1.Concept == m.Ont.Root() {
		return m.Ont.Depth(p2.Concept)
	}
	if math.Abs(p1.Sentiment-p2.Sentiment) > m.Epsilon {
		return Infinite
	}
	if d := m.Ont.UpDistance(p2.Concept, p1.Concept); d >= 0 {
		return d
	}
	return Infinite
}

// Covers reports whether p1 covers p2 (finite Definition-1 distance).
func (m Metric) Covers(p1, p2 Pair) bool {
	return m.PairDistance(p1, p2) < Infinite
}

// DistanceToPair returns d(F, p) = min over f in F ∪ {root} of
// d(f, p) (Definition 2). The implicit root pair guarantees the result
// is finite: at worst the root covers p at distance Depth(p.Concept).
func (m Metric) DistanceToPair(summary []Pair, p Pair) int {
	best := m.Ont.Depth(p.Concept) // the implicit root r
	for _, f := range summary {
		if d := m.PairDistance(f, p); d < best {
			best = d
		}
	}
	return best
}

// Cost returns C(F, P) = Σ_{p∈P} d(F, p) (Definition 2). This is the
// reference (quadratic) implementation used by tests and the evaluator;
// the algorithms use the precomputed coverage graph instead.
func (m Metric) Cost(summary, pairs []Pair) float64 {
	total := 0
	for _, p := range pairs {
		total += m.DistanceToPair(summary, p)
	}
	return float64(total)
}

// GroupDistanceToPair returns the distance from a candidate group of
// pairs (a sentence or whole review, §4.5) to pair p: the minimum
// Definition-1 distance over the group's pairs, or Infinite if none
// covers p. The implicit root is NOT included here — it is added at
// the summary level by GroupCost.
func (m Metric) GroupDistanceToPair(group []Pair, p Pair) int {
	best := Infinite
	for _, f := range group {
		if d := m.PairDistance(f, p); d < best {
			best = d
		}
	}
	return best
}

// GroupCost returns C(P(X), P) where X is a set of candidate groups
// (sentences or reviews): each pair of P is charged its distance to the
// closest pair in the union of the groups, with the root as fallback.
func (m Metric) GroupCost(groups [][]Pair, pairs []Pair) float64 {
	total := 0
	for _, p := range pairs {
		best := m.Ont.Depth(p.Concept)
		for _, g := range groups {
			if d := m.GroupDistanceToPair(g, p); d < best {
				best = d
			}
		}
		total += best
	}
	return float64(total)
}
