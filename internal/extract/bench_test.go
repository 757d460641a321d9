package extract

import (
	"testing"

	"osars/internal/dataset"
)

// BenchmarkNewMatcher measures building the token vocabulary and trie
// over the default synthetic medical ontology (1,343 concepts).
func BenchmarkNewMatcher(b *testing.B) {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMatcher(ont)
	}
}
