// The writer half: appenders for schema-specific encoders, which write
// each field themselves in struct order and format its value with the
// function of its type. Their output is encoding/json's byte for byte.

package jsonscan

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// Finite reports whether f is neither infinite nor NaN: encoding/json
// refuses to encode a float that is not.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// FloatError is the error json.Marshal returns for a float f that is
// not Finite.
func FloatError(f float64) error {
	return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with a one-digit negative exponent unpadded.
func AppendFloat(b []byte, f float64) []byte {
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

// AppendString appends s as a JSON string, escaped as json.Marshal and
// json.Encoder escape strings by default: " and \ get a backslash, \n
// \r \t \b \f their short escapes, other bytes below 0x20 and < > & a
// \u00XX escape, U+2028 and U+2029 become \u2028 and \u2029, and each
// byte of invalid UTF-8 \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		// Eight bytes at a time while none of them needs a look, and
		// the last eight at once when they are the rest.
		if i+8 <= len(s) {
			if !needsEscape(load64(s[i:])) {
				i += 8
				continue
			}
		} else if len(s) >= 8 && !needsEscape(load64(s[len(s)-8:])) {
			break
		}
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

// load64 loads s's first eight bytes little-endian; the compiler makes
// it one load.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// needsEscape reports whether any of the eight bytes in x is one
// AppendString cannot copy as it stands: a quote, a backslash, <, >, &,
// a byte below 0x20 or one from 0x80 up. " and & differ only in bit 2,
// < and > only in bit 1, so setting that bit makes one word test for
// both. A byte from 0x80 up sets its own top bit; below that no byte
// of x, qa, lg or bs has its top bit set, so subtracting 1 (or 0x20)
// from every byte sets a top bit exactly when some byte was 0 (or
// below 0x20).
func needsEscape(x uint64) bool {
	qa := (x | 4*loBits) ^ ('&' * loBits)
	lg := (x | 2*loBits) ^ ('>' * loBits)
	bs := x ^ ('\\' * loBits)
	return ((qa-loBits)|(lg-loBits)|(bs-loBits)|(x-' '*loBits)|x)&hiBits != 0
}
