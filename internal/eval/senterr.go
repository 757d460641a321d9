// Package eval implements the paper's evaluation machinery: the
// sent-err and sent-err-penalized summary-quality measures (§5.3,
// Eq. 1), the elbow method for selecting the sentiment threshold ε,
// and the quantitative (Figs 4-5) and qualitative (Fig 6) experiment
// runners shared by the CLI and the benchmark harness.
package eval

import (
	"math"

	"osars/internal/model"
	"osars/internal/ontology"
)

// SentErr computes the root-mean-square sentiment error of a summary F
// with respect to the full pair multiset P (Eq. 1):
//
//	err_p = min |s_f − s_p| over f ∈ F with f's concept = c_p; else
//	        min |s_f − s_p| over f ∈ F whose concept is c_p's lowest
//	        (nearest) ancestor present in F; else
//	        |s_p|                       (plain), or
//	        max(|1−s_p|, |−1−s_p|)      (penalized).
//
// The penalized variant charges a missing concept the largest possible
// sentiment error, +1 and −1 being the extreme sentiments.
func SentErr(ont *ontology.Ontology, summary, all []model.Pair, penalized bool) float64 {
	if len(all) == 0 {
		return 0
	}
	byConcept := make(map[ontology.ConceptID][]float64)
	for _, f := range summary {
		byConcept[f.Concept] = append(byConcept[f.Concept], f.Sentiment)
	}
	sum := 0.0
	for _, p := range all {
		sum += errOf(ont, byConcept, p, penalized)
	}
	return math.Sqrt(sum / float64(len(all)))
}

// errOf returns err²_{p,F}.
func errOf(ont *ontology.Ontology, byConcept map[ontology.ConceptID][]float64, p model.Pair, penalized bool) float64 {
	// The closure row lists c_p first (distance 0), then its ancestors
	// in non-decreasing distance: the first concept present in F is the
	// concept itself or its lowest ancestor.
	var sentiments []float64
	prevDist := int32(-1)
	ids, dists := ont.Ancestors(p.Concept)
	for i, anc := range ids {
		if len(sentiments) > 0 && dists[i] > prevDist {
			break // already found the lowest level; stop
		}
		if ss, ok := byConcept[anc]; ok {
			// Equal-distance ancestors both in F: pool their
			// sentiments (a DAG can have two lowest ancestors).
			sentiments = append(sentiments, ss...)
			prevDist = dists[i]
		}
	}
	if len(sentiments) > 0 {
		best := math.Inf(1)
		for _, s := range sentiments {
			if d := math.Abs(s - p.Sentiment); d < best {
				best = d
			}
		}
		return best * best
	}
	if penalized {
		worst := math.Max(math.Abs(1-p.Sentiment), math.Abs(-1-p.Sentiment))
		return worst * worst
	}
	return p.Sentiment * p.Sentiment
}

// SummaryPairs collects the pair multiset of the selected sentences
// (global sentence indices in the item's flattened order), i.e. the F
// whose quality sent-err measures.
func SummaryPairs(item *model.Item, sentenceIdx []int) []model.Pair {
	want := make(map[int]bool, len(sentenceIdx))
	for _, si := range sentenceIdx {
		want[si] = true
	}
	var out []model.Pair
	flat := 0
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			if want[flat] {
				out = append(out, item.Reviews[ri].Sentences[si].Pairs...)
			}
			flat++
		}
	}
	return out
}
