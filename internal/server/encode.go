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
//   - strings are escaped as the Encoder escapes them by default: "
//     and \ get a backslash, \n \r \t \b \f their short escapes, other
//     bytes below 0x20 and < > & a \u00XX escape, U+2028 and U+2029
//     become \u2028 and \u2029, and each byte of invalid UTF-8 \ufffd;
//   - numbers are formatted as encoding/json formats float64, int and
//     uint64, and a summary with a non-finite number gets no body, as
//     the Encoder refuses it;
//   - the body ends with a newline.

package server

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"osars"
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
	if !finite(sum.Cost) {
		return nil
	}
	for _, p := range sum.Pairs {
		if !finite(p.Sentiment) {
			return nil
		}
	}
	b := append([]byte(nil), `{"item_id":`...)
	b = appendString(b, sum.ItemID)
	b = append(b, `,"granularity":`...)
	b = appendString(b, sum.Granularity.String())
	b = append(b, `,"method":`...)
	b = appendString(b, sum.Method.String())
	b = append(b, `,"cost":`...)
	b = appendFloat(b, sum.Cost)
	b = append(b, `,"num_pairs":`...)
	b = strconv.AppendInt(b, int64(sum.NumPairs), 10)
	if len(sum.Pairs) > 0 {
		b = append(b, `,"pairs":[`...)
		for i, p := range sum.Pairs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"concept":`...)
			b = appendString(b, sum.Concepts[i])
			b = append(b, `,"sentiment":`...)
			b = appendFloat(b, p.Sentiment)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendStrings(b, `,"sentences":[`, sum.Sentences)
	b = appendStrings(b, `,"review_ids":[`, sum.ReviewIDs)
	if sum.Ontology != "" {
		b = append(b, `,"ontology":`...)
		b = appendString(b, sum.Ontology)
	}
	if sum.OntologyVersion != "" {
		b = append(b, `,"ontology_version":`...)
		b = appendString(b, sum.OntologyVersion)
	}
	return b
}

// appendSummaryTail appends the per-response fields and closes the
// body.
func appendSummaryTail(b []byte, elapsedMS float64, item bool, gen uint64, cached bool) []byte {
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, elapsedMS)
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
		b = appendString(b, s)
	}
	return append(b, ']')
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as json.Encoder
// escapes strings by default (see the file comment).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
