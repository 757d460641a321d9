package coverage

import "osars/internal/model"

// BuildMultiset builds the coverage graph without deduplicating
// targets: W is the multiset P itself, in input order, every weight 1.
// It is the oracle the deduplicated builders and the index are checked
// against.
func BuildMultiset(m model.Metric, groups [][]model.Pair, pairs []model.Pair) *Graph {
	return buildClosure(m, groups, pairs, nil)
}

// RandomDAG exposes the random multi-parent ontology generator.
var RandomDAG = randomDAG

// DupItem exposes the duplicate-dense item generator.
var DupItem = dupItem

// AblationItems exposes the benchmark fixture's per-item pair
// multisets.
var AblationItems = ablationItems
