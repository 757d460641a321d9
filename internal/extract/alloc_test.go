//go:build !race

package extract

import "testing"

// TestAnnotateReviewAllocs pins the one-pass annotator's allocations:
// one []Sentence and one []Pair per review, also when the look-back
// tags uppercase words the vocabulary does not know. It is built
// without the race detector, whose sync.Pool drops items at random.
func TestAnnotateReviewAllocs(t *testing.T) {
	o, _ := phoneOnt(t)
	p := NewPipeline(NewMatcher(o), nil)
	raw := "Xyzzy GREAT Screen. The BATTERY was Frobbing awful! Arrived fast."
	if n := testing.AllocsPerRun(200, func() { p.AnnotateReview("r", raw, 0) }); n != 2 {
		t.Fatalf("AnnotateReview allocates %v times per review, want 2", n)
	}
}
