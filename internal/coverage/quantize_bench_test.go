package coverage_test

import (
	"testing"

	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/summarize"
)

// benchK is the summary size of the ablation and scaling benches.
const benchK = 5

// Ablation 8: the grid-quantized pair graph (the test-only
// BuildPairsQuantized, which also merges the pairs granularity's
// candidates) vs BuildPairs, whose targets are already deduplicated.
// Reported metrics show the instance shrinkage; ns/op is build +
// greedy time.
func BenchmarkAblationQuantizeOff(b *testing.B) {
	m, items := coverage.AblationItems()
	pairs := items[0]
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := coverage.BuildPairs(m, pairs)
		cost = summarize.Greedy(g, benchK).Cost
		b.ReportMetric(float64(len(g.Pairs)), "pairs")
		b.ReportMetric(float64(g.NumEdges()), "edges")
	}
	b.ReportMetric(cost, "cost")
}

func BenchmarkAblationQuantizeOn(b *testing.B) {
	m, items := coverage.AblationItems()
	pairs := items[0]
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := coverage.BuildPairsQuantized(m, pairs, 0.05)
		cost = summarize.Greedy(g, benchK).Cost
		b.ReportMetric(float64(len(g.Pairs)), "pairs")
		b.ReportMetric(float64(g.NumEdges()), "edges")
	}
	b.ReportMetric(cost, "cost")
}

// §4.1 scaling with quantized deduplication: build + greedy time at
// growing pair-multiset sizes, concatenating the fixture's items as
// the root package's BenchmarkScalingPairs* do. Duplicate (concept,
// sentiment) occurrences collapse into weights, restoring near-linear
// growth (the regime the paper's "roughly linear" claim describes).
func benchScalingQuantized(b *testing.B, nPairs int) {
	m, items := coverage.AblationItems()
	var pairs []model.Pair
	for len(pairs) < nPairs {
		for _, item := range items {
			pairs = append(pairs, item...)
			if len(pairs) >= nPairs {
				break
			}
		}
	}
	pairs = pairs[:nPairs]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := coverage.BuildPairsQuantized(m, pairs, 0.05)
		summarize.Greedy(g, benchK)
		b.ReportMetric(float64(g.NumEdges()), "edges")
	}
}

func BenchmarkScalingQuantized250(b *testing.B)  { benchScalingQuantized(b, 250) }
func BenchmarkScalingQuantized500(b *testing.B)  { benchScalingQuantized(b, 500) }
func BenchmarkScalingQuantized1000(b *testing.B) { benchScalingQuantized(b, 1000) }
func BenchmarkScalingQuantized2000(b *testing.B) { benchScalingQuantized(b, 2000) }
