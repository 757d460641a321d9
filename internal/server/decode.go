// Request bodies are read whole, under MaxBodyBytes, into a pooled
// buffer. The two bodies that carry reviews, SummarizeRequest and
// AppendReviewsRequest, are then decoded by field switches over the
// jsonscan scanner instead of encoding/json's reflection. They keep
// everything a client can observe of json.Decoder.Decode except the
// error texts, and FuzzDecodeRequest holds them to that: on top of the
// scanner's rules (package jsonscan), k is an integer literal that
// fits an int, rating a number that fits a float64, a leading BOM is
// an error and bytes after the first value are ignored.
//
// Decoded strings are copies, never substrings of the body: the buffer
// goes back to the pool, and the store keeps raw review texts for as
// long as their item lives.
//
// A summary read's query parameters are scanned in place (queryGet)
// instead of being parsed into a url.Values map.

package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"osars/internal/jsonscan"
)

// maxPooledBody caps the buffers bodyPool keeps, so one large upload
// does not stay allocated after its request.
const maxPooledBody = 1 << 20

// bodyPool holds the buffers request bodies are read into and summary
// responses are assembled in.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBuffer returns buf to bodyPool unless it grew past maxPooledBody.
func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// readBody reads the whole request body under MaxBodyBytes into a
// pooled buffer and passes it to decode. It answers 413 when the body
// is over the limit, however early its JSON value ends, and 400 when
// reading or decode fails, with decode's error as the message. decode
// must not keep b. Reports whether the body was read and decoded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, decode func(b []byte) error) bool {
	limit := s.MaxBodyBytes
	if limit <= 0 {
		limit = 64 << 20
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return false
	}
	if err := decode(buf.Bytes()); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// decode decodes a POST /v1/summarize body.
func (req *SummarizeRequest) decode(b []byte) error {
	d := jsonscan.NewDecoder(b)
	return top(d, func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "item_id"):
			return d.Str(&req.ItemID)
		case jsonscan.Fold(key, "item_name"):
			return d.Str(&req.ItemName)
		case jsonscan.Fold(key, "reviews"):
			return reviews(d, &req.Reviews)
		case jsonscan.Fold(key, "k"):
			return jsonscan.Int(d, &req.K)
		case jsonscan.Fold(key, "granularity"):
			return d.Str(&req.Granularity)
		case jsonscan.Fold(key, "method"):
			return d.Str(&req.Method)
		case jsonscan.Fold(key, "ontology"):
			return d.Str(&req.Ontology)
		}
		return d.Skip()
	})
}

// decode decodes a PUT /v1/items/{id}/reviews body.
func (req *AppendReviewsRequest) decode(b []byte) error {
	d := jsonscan.NewDecoder(b)
	return top(d, func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "item_name"):
			return d.Str(&req.ItemName)
		case jsonscan.Fold(key, "reviews"):
			return reviews(d, &req.Reviews)
		}
		return d.Skip()
	})
}

// top decodes the first value in b, an object or null, through member
// (see jsonscan.Decoder.Object). Whitespace may precede it; anything
// may follow it.
func top(d *jsonscan.Decoder, member func(key []byte) error) error {
	d.Space()
	if err := d.Object(member); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

// reviews decodes an array of reviews, or null, into *p. Elements
// within the capacity of *p are decoded into as they stand.
func reviews(d *jsonscan.Decoder, p *[]RawReview) error {
	return jsonscan.Slice(d, p, func(rv *RawReview) error { return review(d, rv) })
}

// review decodes a review, or null, into *rv.
func review(d *jsonscan.Decoder, rv *RawReview) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "id"):
			return d.Str(&rv.ID)
		case jsonscan.Fold(key, "text"):
			return d.Str(&rv.Text)
		case jsonscan.Fold(key, "rating"):
			return d.Float(&rv.Rating)
		}
		return d.Skip()
	})
}

// queryGet returns the first value of key in the raw query as
// url.ParseQuery followed by Values.Get reads it, scanning the query in
// place instead of building the map: pairs are split at '&', an empty
// pair or one that holds ';' is skipped, a pair without '=' has the
// empty value, and a pair whose key or value fails to unescape is
// skipped. FuzzSummaryQuery holds it to that.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := queryUnescape(k); !ok || k != key {
			continue
		}
		if v, ok := queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape unescapes a query key or value as url.QueryUnescape
// does, which it calls only when s holds '%' or '+'.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}
