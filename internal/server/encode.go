// Both summary endpoints answer through writeSummary instead of
// encoding/json's reflection. A response is the summary's static body,
// rendered once from its fields and kept with the Summary
// (Summary.KeepBody), followed by the fields that change per response:
// elapsed_ms, and for an item summary generation and cached. The bytes
// are those json.NewEncoder(w).Encode writes for SummarizeResponse and
// ItemSummaryResponse, and FuzzSummaryResponse holds the writer to
// that:
//
//   - fields come in the structs' order, and pairs, sentences,
//     review_ids, ontology and ontology_version are left out when
//     empty;
//   - strings are escaped as the Encoder escapes them by default, and
//     floats formatted as it formats a float64, by the appenders of
//     internal/jsonscan, which the store's snapshot writer shares;
//   - a summary with a non-finite number gets no body, as the Encoder
//     refuses it;
//   - the body ends with a newline.

package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"osars"
	"osars/internal/jsonscan"
)

// sinceMS is the elapsed_ms of a request that started at start.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// writeSummary answers 200 with sum's response; item adds the
// generation and cached fields of ItemSummaryResponse.
func writeSummary(w http.ResponseWriter, sum *osars.Summary, elapsedMS float64, item, cached bool) {
	body := sum.Body()
	if body == nil {
		if body = renderSummary(sum); body != nil {
			body = sum.KeepBody(body)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if body == nil {
		return
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Write(body)
	buf.Write(appendSummaryTail(buf.AvailableBuffer(), elapsedMS, item, sum.Generation, cached))
	w.Write(buf.Bytes()) // the status is sent; a failed write has nowhere to go
}

// renderSummary renders sum's static body, from {"item_id": through
// ontology_version without the closing brace, or returns nil when a
// number in it is not finite. Concept names come from sum.Concepts,
// captured under the ontology that solved the summary: an activation
// may have changed the active one since.
func renderSummary(sum *osars.Summary) []byte {
	if !jsonscan.Finite(sum.Cost) {
		return nil
	}
	for _, p := range sum.Pairs {
		if !jsonscan.Finite(p.Sentiment) {
			return nil
		}
	}
	b := append([]byte(nil), `{"item_id":`...)
	b = jsonscan.AppendString(b, sum.ItemID)
	b = append(b, `,"granularity":`...)
	b = jsonscan.AppendString(b, sum.Granularity.String())
	b = append(b, `,"method":`...)
	b = jsonscan.AppendString(b, sum.Method.String())
	b = append(b, `,"cost":`...)
	b = jsonscan.AppendFloat(b, sum.Cost)
	b = append(b, `,"num_pairs":`...)
	b = strconv.AppendInt(b, int64(sum.NumPairs), 10)
	if len(sum.Pairs) > 0 {
		b = append(b, `,"pairs":[`...)
		for i, p := range sum.Pairs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"concept":`...)
			b = jsonscan.AppendString(b, sum.Concepts[i])
			b = append(b, `,"sentiment":`...)
			b = jsonscan.AppendFloat(b, p.Sentiment)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendStrings(b, `,"sentences":[`, sum.Sentences)
	b = appendStrings(b, `,"review_ids":[`, sum.ReviewIDs)
	if sum.Ontology != "" {
		b = append(b, `,"ontology":`...)
		b = jsonscan.AppendString(b, sum.Ontology)
	}
	if sum.OntologyVersion != "" {
		b = append(b, `,"ontology_version":`...)
		b = jsonscan.AppendString(b, sum.OntologyVersion)
	}
	return b
}

// appendSummaryTail appends the per-response fields and closes the
// body.
func appendSummaryTail(b []byte, elapsedMS float64, item bool, gen uint64, cached bool) []byte {
	b = append(b, `,"elapsed_ms":`...)
	b = jsonscan.AppendFloat(b, elapsedMS)
	if item {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, gen, 10)
		b = append(b, `,"cached":`...)
		b = strconv.AppendBool(b, cached)
	}
	return append(b, "}\n"...)
}

// appendStrings appends key, which opens an array, and the array of
// ss, or nothing when ss is empty.
func appendStrings(b []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, key...)
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonscan.AppendString(b, s)
	}
	return append(b, ']')
}
