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
