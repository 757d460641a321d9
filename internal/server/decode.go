// Request bodies are read whole, under MaxBodyBytes, into a pooled
// buffer. The two bodies that carry reviews, SummarizeRequest and
// AppendReviewsRequest, are then decoded by the scanner below instead
// of encoding/json's reflection. It keeps everything a client can
// observe of json.Decoder.Decode except the error texts, and
// FuzzDecodeRequest holds it to that:
//
//   - keys are unquoted, then matched to fields with bytes.EqualFold,
//     as encoding/json folds names; the last duplicate key wins, and
//     the value of an unknown key is validated and skipped;
//   - null leaves a string, a number or a review as it was and sets the
//     reviews slice to nil; [] gives an empty, non-nil slice; a
//     repeated "reviews" key decodes into the earlier slice's backing
//     array without zeroing it, as encoding/json reuses it;
//   - k is an integer literal that fits an int, rating a number that
//     fits a float64;
//   - a byte below 0x20 inside a string, a leading BOM, a malformed
//     literal and nesting deeper than 10,000 levels are errors;
//   - bytes after the first value are ignored.
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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
	d := decoder{b: b}
	return d.top(func(key []byte) error {
		switch {
		case fold(key, "item_id"):
			return d.str(&req.ItemID)
		case fold(key, "item_name"):
			return d.str(&req.ItemName)
		case fold(key, "reviews"):
			return d.reviews(&req.Reviews)
		case fold(key, "k"):
			return d.integer(&req.K)
		case fold(key, "granularity"):
			return d.str(&req.Granularity)
		case fold(key, "method"):
			return d.str(&req.Method)
		case fold(key, "ontology"):
			return d.str(&req.Ontology)
		}
		return d.skip()
	})
}

// decode decodes a PUT /v1/items/{id}/reviews body.
func (req *AppendReviewsRequest) decode(b []byte) error {
	d := decoder{b: b}
	return d.top(func(key []byte) error {
		switch {
		case fold(key, "item_name"):
			return d.str(&req.ItemName)
		case fold(key, "reviews"):
			return d.reviews(&req.Reviews)
		}
		return d.skip()
	})
}

// fold reports whether key names field, as encoding/json matches keys.
func fold(key []byte, field string) bool { return bytes.EqualFold(key, []byte(field)) }

// maxDepth is encoding/json's limit on nested objects and arrays.
const maxDepth = 10000

// decoder scans one JSON value in b. Every method that decodes a value
// starts at the value's first byte and leaves d.i just past it.
type decoder struct {
	b     []byte
	i     int
	depth int // objects and arrays open at d.i
}

// top decodes the first value in b, an object or null, through member
// (see object). Whitespace may precede it; anything may follow it.
func (d *decoder) top(member func(key []byte) error) error {
	d.space()
	if err := d.object(member); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

// object walks an object, calling member with each key and d at the
// key's value, which member must consume. null calls nothing.
func (d *decoder) object(member func(key []byte) error) error {
	if d.literal("null") {
		return nil
	}
	return d.walk('{', '}', func() error {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if !d.next(':') {
			return d.fail("':'")
		}
		d.space()
		return member(key)
	})
}

// walk consumes an object or an array, delimited by open and close,
// calling elem with d at each element, which elem must consume.
func (d *decoder) walk(open, close byte, elem func() error) error {
	if !d.next(open) {
		return d.fail(fmt.Sprintf("%q", open))
	}
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	d.space()
	if d.next(close) {
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.space()
		if d.next(close) {
			d.depth--
			return nil
		}
		if !d.next(',') {
			return d.fail(fmt.Sprintf("',' or %q", close))
		}
		d.space()
	}
}

// reviews decodes an array of reviews, or null, into *p. Elements
// within the capacity of *p are decoded into as they stand.
func (d *decoder) reviews(p *[]RawReview) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	s, n := *p, 0
	err := d.walk('[', ']', func() error {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				s = append(s, RawReview{})
			}
		}
		n++
		return d.review(&s[n-1])
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*p = []RawReview{}
	default:
		*p = s[:n]
	}
	return nil
}

// review decodes a review, or null, into *rv.
func (d *decoder) review(rv *RawReview) error {
	return d.object(func(key []byte) error {
		switch {
		case fold(key, "id"):
			return d.str(&rv.ID)
		case fold(key, "text"):
			return d.str(&rv.Text)
		case fold(key, "rating"):
			return d.float(&rv.Rating)
		}
		return d.skip()
	})
}

// str decodes a string, or null, into *p.
func (d *decoder) str(p *string) error {
	if d.literal("null") {
		return nil
	}
	start, end, plain, err := d.scanString()
	switch {
	case err != nil:
		return err
	case plain:
		*p = string(d.b[start:end])
		return nil
	}
	return json.Unmarshal(d.b[start-1:end+1], p)
}

// integer decodes an integer, or null, into *p.
func (d *decoder) integer(p *int) error {
	if d.literal("null") {
		return nil
	}
	tok, err := d.number()
	if err == nil {
		*p, err = strconv.Atoi(string(tok))
	}
	return err
}

// float decodes a number, or null, into *p.
func (d *decoder) float(p *float64) error {
	if d.literal("null") {
		return nil
	}
	tok, err := d.number()
	if err == nil {
		*p, err = strconv.ParseFloat(string(tok), 64)
	}
	return err
}

// key consumes an object key and returns it unquoted.
func (d *decoder) key() ([]byte, error) {
	start, end, plain, err := d.scanString()
	if err != nil || plain {
		return d.b[start:end], err
	}
	var s string
	err = json.Unmarshal(d.b[start-1:end+1], &s)
	return []byte(s), err
}

// skip validates and consumes one value of any type.
func (d *decoder) skip() error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	switch d.b[d.i] {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.walk('[', ']', d.skip)
	case '"':
		_, _, _, err := d.scanString()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.fail("literal")
	}
	_, err := d.number()
	return err
}

// scanString consumes a string and returns the bounds of its contents.
// plain reports that the contents are their own value: they hold no
// escape and are ASCII or valid UTF-8. Other strings are for
// encoding/json to unquote, which turns invalid UTF-8 into U+FFFD.
func (d *decoder) scanString() (start, end int, plain bool, err error) {
	if !d.next('"') {
		return 0, 0, false, d.fail("string")
	}
	b := d.b
	start = d.i
	i, or, escaped := start, uint64(0), false
	for i < len(b) {
		if i+8 <= len(b) {
			if x := binary.LittleEndian.Uint64(b[i:]); !needsLook(x) {
				or |= x
				i += 8
				continue
			}
		}
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return start, i, !escaped && (or&hiBits == 0 || utf8.Valid(b[start:i])), nil
		case c < ' ':
			d.i = i
			return 0, 0, false, d.fail("string byte")
		case c != '\\':
			or |= uint64(c)
			i++
			continue
		}
		escaped = true
		n := 2 // \" \\ \/ \b \f \n \r \t
		if i+1 < len(b) && b[i+1] == 'u' {
			n = 6 // \uXXXX
		}
		if i+n > len(b) {
			return 0, 0, false, io.ErrUnexpectedEOF
		}
		if !validEscape(b[i+1 : i+n]) {
			d.i = i
			return 0, 0, false, d.fail("escape")
		}
		i += n
	}
	return 0, 0, false, io.ErrUnexpectedEOF
}

const loBits, hiBits = 0x0101010101010101, 0x8080808080808080

// needsLook reports whether any of the eight bytes in x is a quote, a
// backslash or below 0x20, each found exactly by the has-zero-byte and
// has-less-than word tricks.
func needsLook(x uint64) bool {
	q, bs := x^('"'*loBits), x^('\\'*loBits)
	return ((q-loBits)&^q|(bs-loBits)&^bs|(x-' '*loBits)&^x)&hiBits != 0
}

// validEscape reports whether e, an escape after its backslash, is one
// JSON allows.
func validEscape(e []byte) bool {
	if e[0] != 'u' {
		return strings.IndexByte(`"\/bfnrt`, e[0]) >= 0
	}
	for _, c := range e[1:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number consumes a number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	d.next('-')
	switch {
	case d.next('0'):
	case !d.digits():
		return nil, d.fail("digit")
	}
	if d.next('.') && !d.digits() {
		return nil, d.fail("digit")
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if !d.digits() {
			return nil, d.fail("digit")
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes a run of digits and reports whether it was not empty.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// next consumes c if it is the next byte.
func (d *decoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// fail reports that the input at d.i is not the wanted token.
func (d *decoder) fail(want string) error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("want %s at offset %d, have %q", want, d.i, d.b[d.i])
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
