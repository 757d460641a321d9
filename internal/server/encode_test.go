package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"osars"
	"osars/internal/dataset"
	"osars/internal/jsonscan"
	"osars/internal/obs"
)

// gradedReviews fabricates n phone reviews of two sentences that rate
// varying aspects with varying strength. Review IDs and the second
// sentences carry characters that JSON strings escape.
func gradedReviews(n int) []osars.Review {
	aspects := []string{"screen", "battery", "camera", "speaker", "price", "design", "screen resolution", "battery life"}
	adjs := []string{"excellent", "good", "decent", "poor", "awful", "terrible", "amazing", "okay"}
	out := make([]osars.Review, n)
	for i := range out {
		out[i] = osars.Review{
			ID:   fmt.Sprintf("r<%d>&", i),
			Text: fmt.Sprintf("The %s is %s. The \"%s\" is %s & <b>fine</b>.", aspects[i%8], adjs[i*3%8], aspects[(i*5+1)%8], adjs[(i*7+2)%8]),
		}
	}
	return out
}

// referenceResponse is the stateless reply as the handlers built it for
// encoding/json before writeSummary, concept names from Concepts.
func referenceResponse(sum *osars.Summary, elapsedMS float64) SummarizeResponse {
	resp := SummarizeResponse{
		ItemID:          sum.ItemID,
		Granularity:     sum.Granularity.String(),
		Method:          sum.Method.String(),
		Cost:            sum.Cost,
		NumPairs:        sum.NumPairs,
		Sentences:       sum.Sentences,
		ReviewIDs:       sum.ReviewIDs,
		Ontology:        sum.Ontology,
		OntologyVersion: sum.OntologyVersion,
		ElapsedMS:       elapsedMS,
	}
	for i, p := range sum.Pairs {
		resp.Pairs = append(resp.Pairs, PairJSON{Concept: sum.Concepts[i], Sentiment: p.Sentiment})
	}
	return resp
}

// encoded is the body writeJSON writes for v: json.NewEncoder(w).Encode's
// bytes, which are none when Encode fails.
func encoded(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// requireWriterMatchesEncoder checks both endpoints' responses for sum
// against encoding/json, twice each: the first may render and keep the
// body, the second copies the kept one.
func requireWriterMatchesEncoder(t *testing.T, sum *osars.Summary, elapsedMS float64, cached bool) {
	t.Helper()
	ref := referenceResponse(sum, elapsedMS)
	want := [2][]byte{encoded(ref), encoded(ItemSummaryResponse{SummarizeResponse: ref, Generation: sum.Generation, Cached: cached})}
	for round := 0; round < 2; round++ {
		for i, item := range []bool{false, true} {
			w := httptest.NewRecorder()
			writeSummary(w, sum, elapsedMS, item, cached)
			if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("item=%v: status %d, content type %q", item, w.Code, w.Header().Get("Content-Type"))
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want[i]) {
				t.Fatalf("item=%v round %d:\n got  %q\n want %q", item, round, got, want[i])
			}
		}
	}
}

// fuzzSummary builds a Summary from fuzzed fields: gm picks the
// granularity (3 is invalid) and the method (4 is invalid), n%5 the
// number of selected units, named by the '|'-separated parts of units.
// Pair sentiments alternate in sign and shrink with their position.
func fuzzSummary(gm, n uint8, itemID, units, onto, ver string, cost, sentiment float64, numPairs int, gen uint64) *osars.Summary {
	sum := &osars.Summary{
		ItemID:          itemID,
		Generation:      gen,
		Granularity:     osars.Granularity(gm % 4),
		Method:          osars.Method(gm / 4 % 5),
		Cost:            cost,
		NumPairs:        numPairs,
		Ontology:        onto,
		OntologyVersion: ver,
	}
	parts := strings.Split(units, "|")
	for i := 0; i < int(n%5); i++ {
		u := parts[i%len(parts)]
		switch sum.Granularity {
		case osars.Pairs:
			s := sentiment / float64(i+1)
			if i%2 == 1 {
				s = -s
			}
			sum.Pairs = append(sum.Pairs, osars.Pair{Concept: osars.ConceptID(i), Sentiment: s})
			sum.Concepts = append(sum.Concepts, u)
		case osars.Sentences:
			sum.Sentences = append(sum.Sentences, u)
		case osars.Reviews:
			sum.ReviewIDs = append(sum.ReviewIDs, u)
		}
	}
	return sum
}

// FuzzSummaryResponse holds writeSummary to json.NewEncoder(w).Encode
// of the reply types, with elapsed_ms fixed, on random summaries:
// every granularity and method, empty selections and provenance,
// strings that need escaping, and floats of every magnitude.
func FuzzSummaryResponse(f *testing.F) {
	awkward := "a\"b\\c<d>e&f\x00\x01\x1f\x7f\b\f\n\r\t\u2028\u2029é😀\xff\xc3\xed\xa0\x80g"
	for i, c := range []struct {
		units              string
		cost, sentiment, e float64
	}{
		{"The screen is excellent.|The battery is awful.", 1234.5, 0.75, 0.004},
		{awkward + "|" + awkward[3:], 0, -0.5, 0},
		{"", math.Copysign(0, -1), math.Copysign(0, -1), 12.345},
		{"x|y|z", 1e-7, 1e-7, 1e21},
		{"screen resolution|battery life", 999999999999999999999, 1e22, 1e-6},
		{"a", 0.000001, -0.0000009999, 123456789.125},
		{"b", math.MaxFloat64, math.SmallestNonzeroFloat64, 0.001},
	} {
		for gm := uint8(0); gm < 20; gm++ {
			f.Add(gm, uint8(i+2), "doc-"+c.units, c.units, "phone", "0123456789abcdef", c.cost, c.sentiment, 71*i, uint64(i)<<60, i%2 == 0, c.e)
		}
	}
	f.Add(uint8(0), uint8(0), "", "", "", "", 0.0, 0.0, 0, uint64(0), false, 0.0)
	f.Fuzz(func(t *testing.T, gm, n uint8, itemID, units, onto, ver string, cost, sentiment float64, numPairs int, gen uint64, cached bool, elapsedMS float64) {
		if !jsonscan.Finite(elapsedMS) {
			t.Skip("elapsed_ms is always finite")
		}
		requireWriterMatchesEncoder(t, fuzzSummary(gm, n, itemID, units, onto, ver, cost, sentiment, numPairs, gen), elapsedMS, cached)
	})
}

// TestStoredSummaryResponsesMatchEncoder runs the writer over real
// summaries: every granularity and method of a stored phone item, on a
// cache hit, and a stateless summary that has no ontology version.
func TestStoredSummaryResponsesMatchEncoder(t *testing.T) {
	srv := testServer(t)
	st := srv.Store()
	if _, err := st.AppendReviews("p1", "Acme", gradedReviews(20)); err != nil {
		t.Fatal(err)
	}
	for _, g := range []osars.Granularity{osars.Pairs, osars.Sentences, osars.Reviews} {
		for _, m := range []osars.Method{osars.MethodGreedy, osars.MethodRR, osars.MethodILP, osars.MethodLocalSearch} {
			for _, k := range []int{1, 3} {
				st.Summary("p1", k, g, m)
				sum, cached, err := st.Summary("p1", k, g, m)
				if err != nil || !cached {
					t.Fatalf("%v/%v k=%d: cached %v, err %v", g, m, k, cached, err)
				}
				requireWriterMatchesEncoder(t, sum, 0.125, cached)
			}
		}
	}
	sum, err := srv.sum.Summarize(srv.sum.AnnotateItem("s1", "Acme", gradedReviews(20)), 2, osars.Pairs, osars.MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	requireWriterMatchesEncoder(t, sum, 1.5, false)
}

// TestConcurrentFirstResponsesIdentical sends concurrent first reads
// of one cached summary, which may all find no kept body and render it
// (run it under -race): every response must carry the kept bytes and
// differ only in elapsed_ms.
func TestConcurrentFirstResponsesIdentical(t *testing.T) {
	srv := testServer(t)
	st := srv.Store()
	if _, err := st.AppendReviews("p1", "Acme", gradedReviews(20)); err != nil {
		t.Fatal(err)
	}
	sum, _, err := st.Summary("p1", 3, osars.Sentences, osars.MethodGreedy)
	if err != nil || sum.Body() != nil {
		t.Fatalf("primed summary: err %v, body %q", err, sum.Body())
	}
	const readers = 16
	bodies := make([][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := do(t, srv, http.MethodGet, "/v1/items/p1/summary?k=3", nil)
			if w.Code != http.StatusOK {
				t.Errorf("reader %d: status %d: %s", i, w.Code, w.Body.String())
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	kept := sum.Body()
	if kept == nil {
		t.Fatal("no body kept after the first responses")
	}
	for i, b := range bodies {
		static, tail, ok := bytes.Cut(b, []byte(`,"elapsed_ms":`))
		if !ok || !bytes.Equal(static, kept) {
			t.Fatalf("reader %d: body %q does not start with the kept body %q", i, b, kept)
		}
		if _, rest, _ := bytes.Cut(tail, []byte(",")); string(rest) != fmt.Sprintf(`"generation":%d,"cached":true}`+"\n", sum.Generation) {
			t.Fatalf("reader %d: tail %q", i, tail)
		}
	}
}

// querySeeds are raw queries on which queryGet must read what
// url.ParseQuery followed by Get reads, each on a rule it keeps.
var querySeeds = []string{
	"k=5&granularity=pairs&method=greedy",
	"", "&", "&&k=5&", "k", "k=", "=k", "==", "k==5", "k=5=6",
	// The first value wins, also when it is empty.
	"k=1&k=2", "k=&k=3", "k&k=3", "granularity=reviews&granularity=pairs",
	// A pair holding ';' is skipped.
	"k;x=1&k=2", "k=5;granularity=pairs", ";", "k=1;&k=2", "x=;&k=7",
	// Escapes: a pair that fails to unescape is skipped.
	"k=%zz&k=4", "k=%&k=4", "k=%4&k=4", "%=1&k=2", "%6B=7", "%6b=7", "k%3D=4",
	"k=1+2", "k+=3", "+k=3", "k=%2B5", "method=local%2Dsearch", "granularity=sent%65nces",
	"k=5&k=%ZZ", "k=a%20b", "k=%e2%80%a8", "%zz=1&k=9",
	// Bytes url.ParseQuery does not reject.
	"k=\xff", "k=\x00&k=1", "K=5", "k=5#frag", "k=5?x=1", "k= 5",
}

// FuzzSummaryQuery holds queryGet to url.ParseQuery and Values.Get on
// the keys a summary read asks for and on a fuzzed key.
func FuzzSummaryQuery(f *testing.F) {
	for _, q := range querySeeds {
		f.Add(q, "k")
	}
	f.Add("a+b=1&a b=2", "a b")
	f.Add("%41=1&A=2", "A")
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, _ := url.ParseQuery(raw)
		for _, k := range []string{key, "k", "granularity", "method"} {
			if got, want := queryGet(raw, k), vals.Get(k); got != want {
				t.Fatalf("query %q key %q: queryGet %q, url.ParseQuery %q", raw, k, got, want)
			}
		}
	})
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// hitServer returns a server whose store holds a 20-review phone item,
// and a prebuilt GET request for its summary at (k, g), read once so
// that later reads are cache hits of a summary with a kept body.
func hitServer(tb testing.TB, k int, g osars.Granularity) (*Server, *http.Request) {
	tb.Helper()
	s, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(s)
	if _, err := srv.Store().AppendReviews("p1", "Acme", gradedReviews(20)); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/items/p1/summary?k=%d&granularity=%v&method=greedy", k, g), nil)
	w := &discardWriter{h: make(http.Header)}
	for i := 0; i < 2; i++ {
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("status %d", w.status)
		}
	}
	return srv, req
}

// TestSummaryHitAllocs gates the allocations of a cache-hit summary
// read through ServeHTTP: net/http's Content-Type header value and the
// mux's path match, nothing in the handler, and nothing in the metrics
// wrapper once metrics are armed.
func TestSummaryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool Puts")
	}
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("metrics=%v", armed), func(t *testing.T) {
			srv, req := hitServer(t, 5, osars.Sentences)
			if armed {
				srv.ConfigureObservability(ObservabilityConfig{Metrics: obs.NewRegistry()})
			}
			w := &discardWriter{h: make(http.Header)}
			allocs := testing.AllocsPerRun(200, func() {
				clear(w.h)
				srv.ServeHTTP(w, req)
			})
			if w.status != http.StatusOK || allocs > 2 {
				t.Fatalf("cache-hit summary read: status %d, %.1f allocs, want at most 2", w.status, allocs)
			}
		})
	}
}

// BenchmarkServeSummaryHit times cache-hit summary reads through
// ServeHTTP with a prebuilt request, one sub-benchmark per granularity.
func BenchmarkServeSummaryHit(b *testing.B) {
	for _, c := range []struct {
		k int
		g osars.Granularity
	}{{5, osars.Sentences}, {10, osars.Pairs}, {3, osars.Reviews}} {
		b.Run(fmt.Sprintf("%v-k%d", c.g, c.k), func(b *testing.B) {
			srv, req := hitServer(b, c.k, c.g)
			w := &discardWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				srv.ServeHTTP(w, req)
			}
		})
	}
}
