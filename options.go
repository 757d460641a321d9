package osars

import "fmt"

// ParseGranularity maps the wire/CLI names to a Granularity:
// "pairs", "sentences" (also ""), "reviews".
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "pairs":
		return Pairs, nil
	case "", "sentences":
		return Sentences, nil
	case "reviews":
		return Reviews, nil
	default:
		return 0, fmt.Errorf("osars: unknown granularity %q (want pairs|sentences|reviews)", s)
	}
}

// ParseMethod maps the wire/CLI names to a Method: "greedy" (also ""),
// "rr", "ilp", "local-search".
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "greedy":
		return MethodGreedy, nil
	case "rr":
		return MethodRR, nil
	case "ilp":
		return MethodILP, nil
	case "local-search":
		return MethodLocalSearch, nil
	default:
		return 0, fmt.Errorf("osars: unknown method %q (want greedy|rr|ilp|local-search)", s)
	}
}

// Options is the expanded request for SummarizeWithOptions, exposing
// the tuning knobs the plain Summarize call defaults away.
type Options struct {
	K           int
	Granularity Granularity
	Method      Method
	// QuantizeGrid, when > 0, merges duplicate pairs after snapping
	// sentiments to this grid before selection (pairs granularity
	// only; see coverage.BuildPairsQuantized). 0 disables.
	QuantizeGrid float64
	// RRTrials, when > 1, uses best-of-N randomized rounding
	// (MethodRR only).
	RRTrials int
}

// SummarizeWithOptions is Summarize with the extension knobs. Selected
// indices always refer to the item's original pair/sentence/review
// order (quantized selections are mapped back to representatives).
func (s *Summarizer) SummarizeWithOptions(item *Item, opt Options) (*Summary, error) {
	return s.summarize(s.metric, item, opt)
}
