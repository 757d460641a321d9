package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"osars/internal/dataset"
)

// doctorBody is a generated doctor item of n reviews, marshalled as a
// summarize body. With esc set every string is wrapped in quotes, so
// each one carries escapes.
func doctorBody(tb testing.TB, n int, esc bool) []byte {
	tb.Helper()
	q := func(s string) string {
		if esc {
			return `"` + s + `"`
		}
		return s
	}
	cfg := dataset.DoctorConfig(int64(n))
	cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, n, n, n
	corpus := dataset.GenerateWithOntology(cfg, dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1}))
	req := SummarizeRequest{ItemID: q("doc-0001"), ItemName: q("Dr. doc-0001"), K: 5, Granularity: "sentences", Method: "greedy"}
	for i, r := range corpus.Items[0].Reviews {
		req.Reviews = append(req.Reviews, RawReview{ID: q(fmt.Sprintf("doc-0001-r%05d", i)), Text: q(r.Text), Rating: r.Rating})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// decodeEdgeCases are bodies on which the decoders must agree with
// json.Decoder.Decode, each on a rule the decoder keeps.
var decodeEdgeCases = []string{
	// Keys: case folding (the Kelvin sign folds to k, the long s to s,
	// the dotless i to nothing ASCII), escaped keys, duplicates.
	`{"K":3,"ITEM_ID":"a","Reviews":[{"ID":"r","TEXT":"t","Rating":1}]}`,
	`{"K":3}`,
	"{\"K\":3,\"reviewſ\":[{\"ſ\":1,\"iD\":\"x\"}]}",
	`{"ıtem_ıd":"x","ıd":"y"}`,
	`{"k":4,"item_id":"x","\"k":5}`,
	`{"k":1,"k":2,"item_id":"a","item_id":"b","item_name":"c","ITEM_NAME":"d"}`,
	// A repeated reviews key decodes into the earlier backing array.
	`{"reviews":[{"id":"a","text":"x"},{"id":"b","rating":1}],"reviews":[{"text":"y"}],"reviews":[{},{}]}`,
	`{"reviews":[{"id":"a"},{"id":"b"},{"id":"c"}],"reviews":[{"id":"x"}],"reviews":[{},{},{},{},{}]}`,
	`{"reviews":[{"id":"a"}],"reviews":[],"reviews":[{}]}`,
	// null.
	`null`, " \n null \t", `nullgarbage`, `nul`, `nulL`, `{"k":nul}`,
	`{"k":null,"item_id":null,"reviews":null}`,
	`{"k":5,"k":null,"item_id":"a","item_id":null}`,
	`{"reviews":[{"id":"a"}],"reviews":null}`,
	`{"reviews":[null,{"id":"b","text":null,"rating":null}]}`,
	`{"reviews":[{"id":"a","rating":0.5}],"reviews":[null]}`,
	`{"reviews":[]}`,
	// k and rating.
	`{"k":2.5}`, `{"k":"5"}`, `{"k":1e2}`, `{"k":12345678901234567890}`,
	`{"k":-9223372036854775808}`, `{"k":9223372036854775808}`, `{"k":-0}`,
	`{"k":-}`, `{"k":01}`, `{"k":1.}`, `{"k":.5}`, `{"k":+1}`, `{"k":1e}`, `{"k":1e+}`,
	`{"k":true}`, `{"k":[]}`, `{"k":{}}`,
	`{"reviews":[{"rating":1e400}]}`, `{"reviews":[{"rating":-1e-400}]}`,
	`{"reviews":[{"rating":"1"}]}`, `{"reviews":[{"rating":-0.0E+1}]}`,
	`{"reviews":[{"rating":123456789012345678901234567890}]}`,
	// Values of the wrong type.
	`{"item_id":5}`, `{"item_id":true}`, `{"item_id":[]}`, `{"item_name":{}}`,
	`{"reviews":{}}`, `{"reviews":"x"}`, `{"reviews":[1]}`, `{"reviews":[[]]}`, `{"reviews":[true]}`,
	`[]`, `[{"k":1}]`, `"k"`, `5`, `true`, ``, ` `, `{`, `}`,
	// Syntax.
	"\xef\xbb\xbf{\"k\":1}",
	"{\"item_id\":\"a\x01b\"}", "{\"item_id\":\"a\x7fb\"}", "{\"item_id\":\"a\tb\"}",
	`{"x":tru}`, `{"x":nul}`, `{"x":falsey}`, `{"x":nan}`,
	`{"k":1,}`, `{,}`, `{"k"}`, `{"k":}`, `{k:1}`, `{"k" 1}`, `{"k":1 "x":2}`, `{"k":1]`,
	`{"x":[1,]}`, `{"x":[,1]}`, `{"x":[1 2]}`, `{"x":[1}`,
	`{"x":"\x"}`, `{"x":"\u12"}`, `{"x":"\u12G4"}`, `{"x":"\`, `{"x":"abc`, `{"x":"\u00`,
	// Whitespace and trailing bytes.
	" \t\r\n{ \"k\" : 1 , \"item_id\" : \"a\" } \n",
	`{"k":1}garbage`, `{"k":1}{`, `{"k":1} {"k":2}`,
	// Unknown keys: their values are validated, then skipped.
	`{"extra":{"a":[1,2.5e-3,{"b":null,"c":[true,false]}],"d":"é"},"k":1}`,
	`{"reviews":[{"id":"a","extra":[{"x":{}}],"stars":5}]}`,
	`{"extra":{"a":[1,2,}]},"k":1}`,
	// Escapes, surrogate pairs and invalid UTF-8.
	`{"item_id":"a\"b\\c\/d\b\f\n\r\té\u0000"}`,
	`{"item_id":"😀","item_name":"\ud83d","reviews":[{"text":"\ude00\ud83d x","id":"😀"}]}`,
	"{\"item_id\":\"a\xffb\",\"item_name\":\"\xed\xa0\x80\",\"reviews\":[{\"text\":\"caf\xc3\xa9 \xc3\"}]}",
	"{\"k\xff\":1,\"k\":2}",
	"{\"item_id\":\"naïve café 日本\"}",
}

// nested returns `{"x":` around depth−1 opening and closing brackets:
// a body whose deepest value sits depth levels down.
func nested(depth int, open, close string) string {
	return `{"x":` + strings.Repeat(open, depth-1) + strings.Repeat(close, depth-1) + `}`
}

// decodeSeeds returns FuzzDecodeRequest's seed bodies.
func decodeSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{doctorBody(tb, 3, false), doctorBody(tb, 3, true)}
	for _, c := range decodeEdgeCases {
		seeds = append(seeds, []byte(c))
	}
	// encoding/json allows 10,000 nested objects and arrays.
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		seeds = append(seeds,
			[]byte(nested(depth, "[", "]")),
			[]byte(nested(depth, `{"x":`, "}")),
			[]byte(`{"reviews":[{"x":`+strings.Repeat("[", depth-3)+strings.Repeat("]", depth-3)+`}]}`))
	}
	return seeds
}

// FuzzDecodeRequest holds the schema decoders to json.Decoder.Decode:
// on every input both decode the same value into each request type,
// or both fail.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var sum, sumWant SummarizeRequest
		err := sum.decode(b)
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&sumWant)
		sameDecode(t, b, err, wantErr, sum, sumWant)

		var app, appWant AppendReviewsRequest
		err = app.decode(b)
		wantErr = json.NewDecoder(bytes.NewReader(b)).Decode(&appWant)
		sameDecode(t, b, err, wantErr, app, appWant)
	})
}

func sameDecode(t *testing.T, b []byte, err, wantErr error, got, want any) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: schema decoder error %v, encoding/json error %v", b, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%q: schema decoder gave\n%#v\nencoding/json gave\n%#v", b, got, want)
	}
}

var decodeSink SummarizeRequest

// BenchmarkDecodeSummarizeRequest decodes a 71-review doctor body, and
// the same body with every string escaped, by reflection and by the
// schema decoder.
func BenchmarkDecodeSummarizeRequest(b *testing.B) {
	for _, body := range []struct {
		name string
		esc  bool
	}{{"doctor", false}, {"escapes", true}} {
		data := doctorBody(b, 71, body.esc)
		for _, dec := range []struct {
			name   string
			decode func(*SummarizeRequest) error
		}{
			{"encoding-json", func(req *SummarizeRequest) error { return json.NewDecoder(bytes.NewReader(data)).Decode(req) }},
			{"schema", func(req *SummarizeRequest) error { return req.decode(data) }},
		} {
			b.Run(body.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req SummarizeRequest
					if err := dec.decode(&req); err != nil {
						b.Fatal(err)
					}
					decodeSink = req
				}
			})
		}
	}
}

// TestConcurrentBodiesStayApart sends summarize and append bodies from
// several goroutines at once, so request buffers are recycled between
// them, and checks that every stored item and every summary keeps only
// its own text: a decoded string that aliased a pooled buffer would be
// overwritten by a later request's body.
func TestConcurrentBodiesStayApart(t *testing.T) {
	srv := testServer(t)
	const clients, rounds = 8, 20
	// appends[i][round] and summaries[i][round] are client i's bodies,
	// marshalled here so the clients only send.
	appends, summaries := make([][][]byte, clients), make([][][]byte, clients)
	for i := 0; i < clients; i++ {
		for round := 0; round < rounds; round++ {
			rv := []RawReview{{
				ID:   fmt.Sprintf("r%d-%d", i, round),
				Text: fmt.Sprintf("The screen of phone %d is excellent. The battery of phone %d is awful.", i, i),
			}}
			a, err := json.Marshal(AppendReviewsRequest{ItemName: fmt.Sprintf("Phone %d", i), Reviews: rv})
			if err != nil {
				t.Fatal(err)
			}
			s, err := json.Marshal(SummarizeRequest{ItemID: fmt.Sprintf("s%d", i), Reviews: rv, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			appends[i], summaries[i] = append(appends[i], a), append(summaries[i], s)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				w := doRaw(t, srv, http.MethodPut, fmt.Sprintf("/v1/items/p%d/reviews", i), appends[i][round])
				if w.Code != http.StatusOK {
					t.Errorf("client %d: append status %d: %s", i, w.Code, w.Body.String())
					return
				}
				w = doRaw(t, srv, http.MethodPost, "/v1/summarize", summaries[i][round])
				var resp SummarizeResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || resp.ItemID != fmt.Sprintf("s%d", i) {
					t.Errorf("client %d: summarize %d: %s", i, w.Code, w.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		var resp ItemSummaryResponse
		w := do(t, srv, http.MethodGet, fmt.Sprintf("/v1/items/p%d/summary?k=2", i), nil)
		decode(t, w, &resp)
		for _, s := range resp.Sentences {
			if !strings.Contains(s, fmt.Sprintf("phone %d ", i)) {
				t.Errorf("item p%d: sentence %q is not its own", i, s)
			}
		}
		if len(resp.Sentences) != 2 {
			t.Errorf("item p%d: sentences %q", i, resp.Sentences)
		}
	}
}
