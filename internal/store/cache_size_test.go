package store

import (
	"strings"
	"testing"

	"osars/internal/model"
)

// TestSummarySizeCountsAllRetainedBytes pins the cache accounting to
// the fields a Summary actually retains: the ontology provenance
// (Ontology, OntologyVersion, Concepts) and the version component of
// the cache key must all move the reported size, byte for byte, so the
// byte budget can't be silently blown by unaccounted strings. A
// summary's strings count twice: once in its fields and once in the
// response body kept with it.
func TestSummarySizeCountsAllRetainedBytes(t *testing.T) {
	key := cacheKey{id: "item", gen: 1, k: 2, g: model.GranularityPairs, m: MethodGreedy}
	base := &Summary{ItemID: "item", Indices: []int{0, 1}}
	baseSize := summarySize(key, base)

	concept := strings.Repeat("c", 40)
	cases := []struct {
		name  string
		key   cacheKey
		sum   *Summary
		delta int64
	}{
		{
			name:  "key version",
			key:   cacheKey{id: "item", ver: "v123", gen: 1, k: 2, g: model.GranularityPairs, m: MethodGreedy},
			sum:   base,
			delta: 4,
		},
		{
			name:  "ontology name and version",
			key:   key,
			sum:   &Summary{ItemID: "item", Indices: []int{0, 1}, Ontology: "phones", OntologyVersion: "v123"},
			delta: int64(2 * (len("phones") + len("v123"))),
		},
		{
			name: "concept names",
			key:  key,
			sum: &Summary{ItemID: "item", Indices: []int{0, 1},
				Concepts: []string{concept, concept}},
			delta: int64(2*16 + 2*2*len(concept)), // headers + bytes in fields and body
		},
	}
	for _, tc := range cases {
		got := summarySize(tc.key, tc.sum)
		if got != baseSize+tc.delta {
			t.Errorf("%s: size = %d, want base %d + %d", tc.name, got, baseSize, tc.delta)
		}
	}
}
