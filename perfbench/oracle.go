package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"osars"
	"osars/internal/server"
)

func toReviews(in []server.RawReview) []osars.Review {
	out := make([]osars.Review, len(in))
	for i, r := range in {
		out[i] = osars.Review{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	return out
}

// expected is the summary the library's cold path (annotate the whole
// review prefix, then Summarize with MethodGreedy) gives, in the wire
// shape both summary endpoints answer with.
func expected(sum *osars.Summarizer, it *fixture, prefix int, v variant) (server.SummarizeResponse, error) {
	gran, err := osars.ParseGranularity(v.Gran)
	if err != nil {
		return server.SummarizeResponse{}, err
	}
	item := sum.AnnotateItem(it.ID, it.Name, toReviews(it.Reviews[:prefix]))
	s, err := sum.Summarize(item, v.K, gran, osars.MethodGreedy)
	if err != nil {
		return server.SummarizeResponse{}, err
	}
	rt := sum.Runtime()
	resp := server.SummarizeResponse{
		ItemID:          it.ID,
		Granularity:     gran.String(),
		Method:          osars.MethodGreedy.String(),
		Cost:            s.Cost,
		NumPairs:        len(item.Pairs()),
		Sentences:       s.Sentences,
		ReviewIDs:       s.ReviewIDs,
		Ontology:        rt.Name,
		OntologyVersion: rt.Version,
	}
	for _, p := range s.Pairs {
		resp.Pairs = append(resp.Pairs, server.PairJSON{Concept: rt.Metric.Ont.Name(p.Concept), Sentiment: p.Sentiment})
	}
	return resp, nil
}

// check compares one sampled response with the oracle. A summary must
// match the cold path byte for byte once elapsed_ms (and, for stored
// items, generation and cached) are dropped: cost, concepts, sentences
// and review IDs in selection order. An append must report the item's
// exact review count.
func check(sum *osars.Summarizer, in *inputs, s sample) error {
	rq := &in.Timed[s.client][s.index]
	it := &in.Items[rq.Item]
	if rq.Kind == kindAppend {
		var got osars.ItemStats
		if err := json.Unmarshal(s.body, &got); err != nil {
			return fmt.Errorf("append %s: %w", it.ID, err)
		}
		if got.ID != it.ID || got.NumReviews != int(rq.Reviews) {
			return fmt.Errorf("append %s: got item %q with %d reviews, want %d", it.ID, got.ID, got.NumReviews, rq.Reviews)
		}
		return nil
	}
	var got server.ItemSummaryResponse
	if err := json.Unmarshal(s.body, &got); err != nil {
		return fmt.Errorf("summary %s: %w", it.ID, err)
	}
	got.ElapsedMS = 0
	v := in.Variants[rq.Variant]
	want, err := expected(sum, it, int(rq.Reviews), v)
	if err != nil {
		return fmt.Errorf("oracle %s: %w", it.ID, err)
	}
	if g, w := mustJSON(got.SummarizeResponse), mustJSON(want); !bytes.Equal(g, w) {
		return fmt.Errorf("summary %s (k=%d %s, %d reviews) differs from the cold path:\n got  %s\n want %s",
			it.ID, v.K, v.Gran, rq.Reviews, g, w)
	}
	return nil
}
