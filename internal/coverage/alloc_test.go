package coverage_test

import (
	"testing"

	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/model"
)

// TestBuildAllocsIndependentOfReviews pins Build's allocation count to
// a constant: its inputs are presized and its scratch is pooled, so it
// must not allocate per review, sentence or pair. The bound leaves
// headroom for map internals that differ across Go versions.
func TestBuildAllocsIndependentOfReviews(t *testing.T) {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	m := model.Metric{Ont: ont, Epsilon: 0.5}
	for _, n := range []int{354, 1000} {
		item := doctorItem(ont, n)
		for _, g := range granularities {
			allocs := testing.AllocsPerRun(10, func() { coverage.Build(m, item, g) })
			if allocs >= 64 {
				t.Errorf("%d reviews/%v: Build makes %.0f allocations, want < 64", n, g, allocs)
			}
		}
	}
}
