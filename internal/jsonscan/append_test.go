package jsonscan

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// escapeCases are the bytes and runes AppendString must not copy as
// they stand, and some it must.
var escapeCases = []string{
	`"`, `\`, "<", ">", "&", "=", "?", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f", " ",
	"\u2028", "\u2029", "\u2027", "\u202a", "\ufffd", "\u00e9", "\u2713", "\U0001F600",
	"\xff", "\x80", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc0\xaf",
}

// TestAppendStringMatchesMarshal puts each case at every offset of the
// 8-byte words AppendString skips, alone and in runs.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, c := range escapeCases {
		for off := 0; off < 16; off++ {
			for _, s := range []string{
				strings.Repeat("a", off) + c,
				strings.Repeat("a", off) + c + strings.Repeat("b", 9),
				strings.Repeat("a", off) + strings.Repeat(c, 9) + "z",
			} {
				want, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := AppendString([]byte("x"), s); string(got[1:]) != string(want) || got[0] != 'x' {
					t.Fatalf("AppendString(%q) = %s, want %s", s, got[1:], want)
				}
			}
		}
	}
}

// TestAppendFloatMatchesMarshal covers both formats and their bounds.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-7, 9.999999999999999e-7,
		1e-6, 0.1, 0.30000000000000004, -0.5, 1, 123456789.125, 1e20, 999999999999999900000, 1e21, 1e22,
		-1.2345678901234567e-300, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
		if !Finite(f) {
			t.Fatalf("Finite(%v) = false", f)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if Finite(f) || want == nil || FloatError(f).Error() != want.Error() {
			t.Fatalf("%v: Finite true or FloatError %v, want %v", f, FloatError(f), want)
		}
	}
}

var appendSink []byte

// BenchmarkAppendString escapes review-like text: ASCII prose with a
// quote, an ampersand and a non-ASCII letter in it.
func BenchmarkAppendString(b *testing.B) {
	s := strings.Repeat(`The staff were "very" kind & the café was clean. `, 8)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		appendSink = AppendString(appendSink[:0], s)
	}
}
