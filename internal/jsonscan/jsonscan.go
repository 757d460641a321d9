// Package jsonscan is a reflection-free JSON scanner and writer for
// schema-specific codecs. A decoder walks its input with a Decoder
// and switches on each object key itself, decoding every field with
// the method or function of its type, so no value is decoded through
// reflect; an encoder writes each field itself with the appenders
// (AppendString, AppendFloat), which write encoding/json's bytes. The
// scanner keeps the rules of encoding/json that a decoder built on it
// can be held to:
//
//   - keys are unquoted, then matched to field names with Fold, as
//     encoding/json folds names; the value of an unknown key is
//     validated and skipped (Skip);
//   - null leaves a string, a number or an object as it was and sets a
//     slice to nil; [] gives an empty, non-nil slice; an array decodes
//     into the earlier slice's backing array without zeroing it, as
//     encoding/json reuses it (Slice);
//   - integers are integer literals within the range of their type,
//     floats numbers within a float64's;
//   - a byte below 0x20 inside a string, a malformed literal or escape
//     and nesting deeper than MaxDepth are errors.
//
// What follows a value is the caller's to check: End requires it to be
// whitespace, as json.Unmarshal does, and json.Decoder ignores it.
//
// Decoded strings are copies, never substrings of the input, so the
// input may be reused as soon as the decoder is done with it.
package jsonscan

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MaxDepth is encoding/json's limit on nested objects and arrays.
const MaxDepth = 10000

// Decoder scans one JSON value in its input. Every method that decodes
// a value starts at the value's first byte and leaves the decoder just
// past it.
type Decoder struct {
	b     []byte
	i     int
	depth int // objects and arrays open at i
}

// NewDecoder returns a decoder at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Fold reports whether key names field, as encoding/json matches keys.
func Fold(key []byte, field string) bool { return bytes.EqualFold(key, []byte(field)) }

// Object walks an object, calling member with each key and d at the
// key's value, which member must consume. null calls nothing.
func (d *Decoder) Object(member func(key []byte) error) error {
	if d.Literal("null") {
		return nil
	}
	return d.Walk('{', '}', func() error {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.Space()
		if !d.Next(':') {
			return d.Fail("':'")
		}
		d.Space()
		return member(key)
	})
}

// Walk consumes an object or an array, delimited by open and close,
// calling elem with d at each element, which elem must consume.
func (d *Decoder) Walk(open, close byte, elem func() error) error {
	if !d.Next(open) {
		return d.Fail(fmt.Sprintf("%q", open))
	}
	if d.depth++; d.depth > MaxDepth {
		return errors.New("exceeded max depth")
	}
	d.Space()
	if d.Next(close) {
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.Space()
		if d.Next(close) {
			d.depth--
			return nil
		}
		if !d.Next(',') {
			return d.Fail(fmt.Sprintf("',' or %q", close))
		}
		d.Space()
	}
}

// Slice decodes an array, or null, into *p, calling elem with d at each
// element and the slot it decodes into. Slots within the capacity of
// *p are decoded into as they stand.
func Slice[T any](d *Decoder, p *[]T, elem func(*T) error) error {
	if d.Literal("null") {
		*p = nil
		return nil
	}
	s, n := *p, 0
	err := d.Walk('[', ']', func() error {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		n++
		return elem(&s[n-1])
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*p = []T{}
	default:
		*p = s[:n]
	}
	return nil
}

// Str decodes a string, or null, into *p.
func (d *Decoder) Str(p *string) error {
	if d.Literal("null") {
		return nil
	}
	start, end, plain, err := d.ScanString()
	switch {
	case err != nil:
		return err
	case plain:
		*p = string(d.b[start:end])
		return nil
	}
	return json.Unmarshal(d.b[start-1:end+1], p)
}

// Int decodes an integer, or null, into *p: an integer literal within
// the range of T, as encoding/json decodes one into a signed integer.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](d *Decoder, p *T) error {
	if d.Literal("null") {
		return nil
	}
	tok, err := d.Number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err == nil && int64(T(n)) != n {
		err = fmt.Errorf("number %s overflows %T", tok, *p)
	}
	if err == nil {
		*p = T(n)
	}
	return err
}

// Uint decodes an integer, or null, into *p: an unsigned integer
// literal within the range of T, as encoding/json decodes one into an
// unsigned integer.
func Uint[T ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](d *Decoder, p *T) error {
	if d.Literal("null") {
		return nil
	}
	tok, err := d.Number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err == nil && uint64(T(n)) != n {
		err = fmt.Errorf("number %s overflows %T", tok, *p)
	}
	if err == nil {
		*p = T(n)
	}
	return err
}

// Float decodes a number, or null, into *p.
func (d *Decoder) Float(p *float64) error {
	if d.Literal("null") {
		return nil
	}
	tok, err := d.Number()
	if err == nil {
		*p, err = strconv.ParseFloat(string(tok), 64)
	}
	return err
}

// key consumes an object key and returns it unquoted.
func (d *Decoder) key() ([]byte, error) {
	start, end, plain, err := d.ScanString()
	if err != nil || plain {
		return d.b[start:end], err
	}
	var s string
	err = json.Unmarshal(d.b[start-1:end+1], &s)
	return []byte(s), err
}

// Skip validates and consumes one value of any type.
func (d *Decoder) Skip() error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	switch d.b[d.i] {
	case '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case '[':
		return d.Walk('[', ']', d.Skip)
	case '"':
		_, _, _, err := d.ScanString()
		return err
	case 't', 'f', 'n':
		if d.Literal("true") || d.Literal("false") || d.Literal("null") {
			return nil
		}
		return d.Fail("literal")
	}
	_, err := d.Number()
	return err
}

// Value validates and consumes one value of any type and returns its
// bytes, which alias the input: what encoding/json hands a field's
// UnmarshalJSON method.
func (d *Decoder) Value() ([]byte, error) {
	start := d.i
	err := d.Skip()
	return d.b[start:d.i], err
}

// End reports an error unless only whitespace is left, as
// json.Unmarshal requires after its value.
func (d *Decoder) End() error {
	d.Space()
	if d.i < len(d.b) {
		return d.Fail("end of input")
	}
	return nil
}

// ScanString consumes a string and returns the bounds of its contents.
// plain reports that the contents are their own value: they hold no
// escape and are ASCII or valid UTF-8. Other strings are for
// encoding/json to unquote, which turns invalid UTF-8 into U+FFFD.
func (d *Decoder) ScanString() (start, end int, plain bool, err error) {
	if !d.Next('"') {
		return 0, 0, false, d.Fail("string")
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
			return 0, 0, false, d.Fail("string byte")
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
			return 0, 0, false, d.Fail("escape")
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

// Number consumes a number and returns its literal.
func (d *Decoder) Number() ([]byte, error) {
	start := d.i
	d.Next('-')
	switch {
	case d.Next('0'):
	case !d.digits():
		return nil, d.Fail("digit")
	}
	if d.Next('.') && !d.digits() {
		return nil, d.Fail("digit")
	}
	if d.Next('e') || d.Next('E') {
		if !d.Next('+') {
			d.Next('-')
		}
		if !d.digits() {
			return nil, d.Fail("digit")
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes a run of digits and reports whether it was not empty.
func (d *Decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// Literal consumes lit if the input continues with it.
func (d *Decoder) Literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// Next consumes c if it is the next byte.
func (d *Decoder) Next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// Space consumes whitespace.
func (d *Decoder) Space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// Fail reports that the input at the decoder's position is not the
// wanted token.
func (d *Decoder) Fail(want string) error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("want %s at offset %d, have %q", want, d.i, d.b[d.i])
}
