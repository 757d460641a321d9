// Benchmark harness: one benchmark per paper table/figure (see
// DESIGN.md's per-experiment index) plus the ablation benches for the
// design choices DESIGN.md calls out. The printed experiment rows come
// from cmd/osars-experiments; these benches regenerate the underlying
// measurements (selection time per item for Fig 4, with the achieved
// coverage cost attached as a custom metric for Fig 5, sent-err for
// Fig 6, corpus generation for Table 1).
//
// Run with: go test -bench=. -benchmem
package osars

import (
	"math/rand"
	"sync"
	"testing"

	"osars/internal/baselines"
	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/eval"
	"osars/internal/extract"
	"osars/internal/lp"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
	"osars/internal/summarize"
	"osars/internal/text"
)

// fixtures are built once and shared across benchmarks.
type benchFixtures struct {
	doctorItems []*model.Item
	doctorM     model.Metric
	phoneItems  []*model.Item
	phoneM      model.Metric
	graphs      map[model.Granularity][]*coverage.Graph
}

var (
	fixOnce sync.Once
	fix     *benchFixtures
)

func fixtures() *benchFixtures {
	fixOnce.Do(func() {
		fix = &benchFixtures{graphs: map[model.Granularity][]*coverage.Graph{}}
		// Doctor items (Figs 4-5 are on the doctor dataset).
		dcfg := dataset.DoctorConfig(1)
		dcfg.NumItems = 3
		dcfg.TotalReviews = 210
		dcfg.MinReviews = 60
		dcfg.MaxReviews = 80
		doctors := dataset.Generate(dcfg)
		fix.doctorM = model.Metric{Ont: doctors.Ont, Epsilon: 0.5}
		dp := extract.NewPipeline(extract.NewMatcher(doctors.Ont), sentiment.Lexicon{})
		for _, it := range doctors.Items {
			var raws []extract.RawReview
			for _, r := range it.Reviews {
				raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
			}
			fix.doctorItems = append(fix.doctorItems, dp.AnnotateItem(it.ID, it.Name, raws))
		}
		for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
			for _, item := range fix.doctorItems {
				fix.graphs[g] = append(fix.graphs[g], coverage.Build(fix.doctorM, item, g))
			}
		}
		// Phone items (Fig 6 is on the cell-phone dataset).
		pcfg := dataset.SmallCellPhoneConfig(2)
		pcfg.NumItems = 3
		pcfg.TotalReviews = 120
		pcfg.MinReviews = 35
		pcfg.MaxReviews = 45
		phones := dataset.Generate(pcfg)
		fix.phoneM = model.Metric{Ont: phones.Ont, Epsilon: 0.5}
		pp := extract.NewPipeline(extract.NewMatcher(phones.Ont), sentiment.Lexicon{})
		for _, it := range phones.Items {
			var raws []extract.RawReview
			for _, r := range it.Reviews {
				raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
			}
			fix.phoneItems = append(fix.phoneItems, pp.AnnotateItem(it.ID, it.Name, raws))
		}
	})
	return fix
}

// --- Table 1: dataset generation -----------------------------------

func BenchmarkTable1DatasetGeneration(b *testing.B) {
	var stats dataset.Stats
	for i := 0; i < b.N; i++ {
		c := dataset.Generate(dataset.SmallDoctorConfig(int64(i)))
		stats = dataset.ComputeStats(c)
	}
	b.ReportMetric(float64(stats.NumReviews), "reviews")
	b.ReportMetric(stats.AvgSentencesPerRev, "sentences/review")
}

// --- Figs 4-5: algorithm time (ns/op) and cost (custom metric) -----

const benchK = 5

// benchAlgorithm times one algorithm over the prebuilt per-item
// coverage graphs at k=benchK and reports the average Definition-2
// cost as the Fig 5 metric.
func benchAlgorithm(b *testing.B, gran model.Granularity, alg summarize.Algorithm) {
	f := fixtures()
	graphs := f.graphs[gran]
	rng := rand.New(rand.NewSource(3))
	totalCost, runs := 0.0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)]
		res, err := summarize.Run(alg, g, benchK, rng)
		if err != nil {
			b.Fatal(err)
		}
		totalCost += res.Cost
		runs++
	}
	b.ReportMetric(totalCost/float64(runs), "cost")
}

func BenchmarkFig45PairsILP(b *testing.B) {
	benchAlgorithm(b, model.GranularityPairs, summarize.AlgILP)
}
func BenchmarkFig45PairsRR(b *testing.B) {
	benchAlgorithm(b, model.GranularityPairs, summarize.AlgRR)
}
func BenchmarkFig45PairsGreedy(b *testing.B) {
	benchAlgorithm(b, model.GranularityPairs, summarize.AlgGreedy)
}
func BenchmarkFig45SentencesILP(b *testing.B) {
	benchAlgorithm(b, model.GranularitySentences, summarize.AlgILP)
}
func BenchmarkFig45SentencesRR(b *testing.B) {
	benchAlgorithm(b, model.GranularitySentences, summarize.AlgRR)
}
func BenchmarkFig45SentencesGreedy(b *testing.B) {
	benchAlgorithm(b, model.GranularitySentences, summarize.AlgGreedy)
}
func BenchmarkFig45ReviewsILP(b *testing.B) {
	benchAlgorithm(b, model.GranularityReviews, summarize.AlgILP)
}
func BenchmarkFig45ReviewsRR(b *testing.B) {
	benchAlgorithm(b, model.GranularityReviews, summarize.AlgRR)
}
func BenchmarkFig45ReviewsGreedy(b *testing.B) {
	benchAlgorithm(b, model.GranularityReviews, summarize.AlgGreedy)
}

// BenchmarkFig45Initialization times the shared §4.1 graph-building
// phase the three algorithms start from.
func BenchmarkFig45Initialization(b *testing.B) {
	f := fixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := f.doctorItems[i%len(f.doctorItems)]
		coverage.Build(f.doctorM, item, model.GranularityPairs)
	}
}

// --- Fig 6: sent-err of each summarizer ----------------------------

func benchSelector(b *testing.B, sel baselines.Selector) {
	f := fixtures()
	var lastErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := f.phoneItems[i%len(f.phoneItems)]
		chosen := sel.SelectSentences(item, benchK)
		F := eval.SummaryPairs(item, chosen)
		lastErr = eval.SentErr(f.phoneM.Ont, F, item.Pairs(), false)
	}
	b.ReportMetric(lastErr, "sent-err")
}

func BenchmarkFig6Ours(b *testing.B) {
	benchSelector(b, eval.GreedySelector{Metric: fixtures().phoneM})
}
func BenchmarkFig6MostPopular(b *testing.B)  { benchSelector(b, baselines.MostPopular{}) }
func BenchmarkFig6Proportional(b *testing.B) { benchSelector(b, baselines.Proportional{}) }
func BenchmarkFig6TextRank(b *testing.B)     { benchSelector(b, baselines.TextRank{}) }
func BenchmarkFig6LexRank(b *testing.B)      { benchSelector(b, baselines.LexRank{}) }
func BenchmarkFig6LSA(b *testing.B)          { benchSelector(b, baselines.LSA{}) }

// --- §5.3 elbow sweep -----------------------------------------------

func BenchmarkElbowThreshold(b *testing.B) {
	f := fixtures()
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	pairs := f.doctorItems[0].Pairs()
	var eps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps, _ = eval.SelectEpsilon(f.doctorM, pairs, 10, grid)
	}
	b.ReportMetric(eps, "epsilon")
}

// --- Ablations (DESIGN.md) ------------------------------------------

// Ablation 1: lazy greedy (keys refreshed only when popped) vs full
// recomputation of every gain after each pick.
func BenchmarkAblationGreedyHeapLazy(b *testing.B) {
	f := fixtures()
	g := f.graphs[model.GranularityPairs][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize.Greedy(g, benchK)
	}
}

func BenchmarkAblationGreedyHeapRebuild(b *testing.B) {
	f := fixtures()
	g := f.graphs[model.GranularityPairs][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize.GreedyRebuild(g, benchK)
	}
}

// Ablation 2 (§4.1 bucket+ancestor-walk initialization vs naive
// all-pairs distances) lives with its reference builder in
// internal/coverage/reference_test.go.

// Ablation 3: simplex pivot rule on the k-median LP relaxation.
func benchSimplexPivot(b *testing.B, bland bool) {
	f := fixtures()
	g := f.graphs[model.GranularityPairs][0]
	opt := &lp.Options{Bland: bland}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := lp.NewKMedianModel(g, benchK)
		if _, err := m.SolveLP(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSimplexDantzig(b *testing.B) { benchSimplexPivot(b, false) }
func BenchmarkAblationSimplexBland(b *testing.B)   { benchSimplexPivot(b, true) }

// Ablation 4: sentiment estimator — unsupervised lexicon vs trained
// ridge regression, timed per sentence with accuracy (MAE against the
// generator's latent truth) attached.
func benchEstimator(b *testing.B, est sentiment.Estimator, corpus *dataset.Corpus) {
	pipe := extract.NewPipeline(extract.NewMatcher(corpus.Ont), est)
	item := corpus.Items[0]
	var sentences []string
	for _, r := range item.Reviews {
		sentences = append(sentences, text.SplitSentences(r.Text)...)
	}
	// Accuracy pass (excluded from timing).
	mae, n := 0.0, 0
	for _, r := range item.Reviews[:20] {
		rev := pipe.AnnotateReview(r.ID, r.Text, r.Rating)
		for _, p := range rev.Pairs() {
			if truth, ok := item.Truth[p.Concept]; ok {
				d := p.Sentiment - truth
				if d < 0 {
					d = -d
				}
				mae += d
				n++
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks := text.Tokenize(sentences[i%len(sentences)])
		est.EstimateSentence(toks)
	}
	if n > 0 {
		b.ReportMetric(mae/float64(n), "mae-vs-truth")
	}
}

func BenchmarkAblationSentimentLexicon(b *testing.B) {
	corpus := dataset.Generate(dataset.SmallCellPhoneConfig(17))
	benchEstimator(b, sentiment.Lexicon{}, corpus)
}

func BenchmarkAblationSentimentRidge(b *testing.B) {
	corpus := dataset.Generate(dataset.SmallCellPhoneConfig(17))
	var examples []sentiment.Example
	for _, it := range corpus.Items {
		for _, r := range it.Reviews {
			examples = append(examples, sentiment.Example{Tokens: text.Tokenize(r.Text), Target: r.Rating})
		}
	}
	ridge, err := sentiment.TrainRidge(examples, sentiment.RidgeOptions{Stem: true})
	if err != nil {
		b.Fatal(err)
	}
	benchEstimator(b, ridge, corpus)
}

// Ablation 5: ε sensitivity — greedy summary cost across thresholds.
func benchEpsilon(b *testing.B, eps float64) {
	f := fixtures()
	m := model.Metric{Ont: f.doctorM.Ont, Epsilon: eps}
	pairs := f.doctorItems[0].Pairs()
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := coverage.BuildPairs(m, pairs)
		cost = summarize.Greedy(g, benchK).Cost
	}
	b.ReportMetric(cost, "cost")
}

func BenchmarkAblationEpsilon01(b *testing.B) { benchEpsilon(b, 0.1) }
func BenchmarkAblationEpsilon05(b *testing.B) { benchEpsilon(b, 0.5) }
func BenchmarkAblationEpsilon10(b *testing.B) { benchEpsilon(b, 1.0) }

// Ablation 6: the paper's literal §4.2 y-form ILP vs the equivalent
// compact layer-cake form used in production (see internal/lp).
func benchILPForm(b *testing.B, yform bool) {
	f := fixtures()
	g := f.graphs[model.GranularityPairs][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m *lp.KMedianModel
		if yform {
			m = lp.NewKMedianModelYForm(g, benchK)
		} else {
			m = lp.NewKMedianModel(g, benchK)
		}
		res, err := m.SolveLP(nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, cols := m.ModelSizes()
		b.ReportMetric(float64(rows), "rows")
		b.ReportMetric(float64(cols), "cols")
		b.ReportMetric(res.Objective, "lp-objective")
	}
}

func BenchmarkAblationILPFormCompact(b *testing.B) { benchILPForm(b, false) }
func BenchmarkAblationILPFormYForm(b *testing.B)   { benchILPForm(b, true) }

// Ablation 7: single-sample randomized rounding (Algorithm 1) vs the
// best-of-N extension.
func benchRRTrials(b *testing.B, trials int) {
	f := fixtures()
	g := f.graphs[model.GranularityReviews][0]
	rng := rand.New(rand.NewSource(5))
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := summarize.RandomizedRoundingBest(g, benchK, trials, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		cost += res.Cost
	}
	b.ReportMetric(cost/float64(b.N), "cost")
}

func BenchmarkAblationRRTrials1(b *testing.B)  { benchRRTrials(b, 1) }
func BenchmarkAblationRRTrials16(b *testing.B) { benchRRTrials(b, 16) }

// ICDE'17 poster coverage measures of the greedy summary.
func BenchmarkCoverageMeasures(b *testing.B) {
	f := fixtures()
	g := f.graphs[model.GranularityPairs][0]
	sel := summarize.Greedy(g, benchK).Selected
	var rep eval.CoverageReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = eval.Coverage(g, sel)
	}
	b.ReportMetric(rep.CoveredRate, "covered-rate")
	b.ReportMetric(rep.NormalizedCost, "norm-cost")
}

// Extension: 1-swap local search vs the algorithms it brackets.
func BenchmarkExtensionLocalSearch(b *testing.B) {
	f := fixtures()
	g := f.graphs[model.GranularityReviews][0]
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost = summarize.LocalSearch(g, benchK, nil).Cost
	}
	b.ReportMetric(cost, "cost")
}

// --- §4.1 scaling: initialization and greedy vs |P| -----------------
//
// The paper claims the initialization phase "and the size of the
// resulting graph G are roughly linear in |P|, because the average
// number of ancestors for each node in the DAG is small". These
// benches measure build + greedy time at growing pair-multiset sizes
// over the same ontology.
func benchScaling(b *testing.B, nPairs int) {
	f := fixtures()
	// Concatenate item pair multisets until the target size.
	var pairs []model.Pair
	for len(pairs) < nPairs {
		for _, item := range f.doctorItems {
			pairs = append(pairs, item.Pairs()...)
			if len(pairs) >= nPairs {
				break
			}
		}
	}
	pairs = pairs[:nPairs]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := coverage.BuildPairs(f.doctorM, pairs)
		summarize.Greedy(g, benchK)
		b.ReportMetric(float64(g.NumEdges()), "edges")
	}
}

func BenchmarkScalingPairs250(b *testing.B)  { benchScaling(b, 250) }
func BenchmarkScalingPairs500(b *testing.B)  { benchScaling(b, 500) }
func BenchmarkScalingPairs1000(b *testing.B) { benchScaling(b, 1000) }
func BenchmarkScalingPairs2000(b *testing.B) { benchScaling(b, 2000) }

// --- Cold path (PR 2): per-layer microbenches -----------------------
//
// These isolate each layer of the cold path (the work a cache miss or
// an AppendReviews pays): annotation, coverage-graph construction, and
// greedy selection, plus the end-to-end cold Summarize. cmd/osars-bench
// runs the same measurements standalone and records them in
// BENCH_coldpath.json.

type coldFixtures struct {
	ont   *ontology.Ontology
	sum   *Summarizer
	pipe  *extract.Pipeline
	raws  [][]extract.RawReview
	items []*model.Item
	toks  [][]string // tokenized sentences of item 0
}

var (
	coldOnce sync.Once
	cold     *coldFixtures
)

func coldFix() *coldFixtures {
	coldOnce.Do(func() {
		cfg := dataset.DoctorConfig(1)
		cfg.NumItems = 3
		cfg.TotalReviews = 210
		cfg.MinReviews = 60
		cfg.MaxReviews = 80
		c := dataset.Generate(cfg)
		cold = &coldFixtures{ont: c.Ont}
		s, err := New(Config{Ontology: c.Ont})
		if err != nil {
			panic(err)
		}
		cold.sum = s
		cold.pipe = extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{})
		for _, it := range c.Items {
			var raws []extract.RawReview
			for _, r := range it.Reviews {
				raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
			}
			cold.raws = append(cold.raws, raws)
			cold.items = append(cold.items, cold.pipe.AnnotateItem(it.ID, it.Name, raws))
		}
		for _, r := range c.Items[0].Reviews {
			for _, sent := range text.SplitSentences(r.Text) {
				cold.toks = append(cold.toks, text.Tokenize(sent))
			}
		}
	})
	return cold
}

// BenchmarkColdAnnotateItem is the sequential annotation layer: one
// whole doctor item through tokenize + match + sentiment.
func BenchmarkColdAnnotateItem(b *testing.B) {
	f := coldFix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pipe.AnnotateItem("d", "Doc", f.raws[i%len(f.raws)])
	}
}

// BenchmarkColdMatcherStemmed isolates Matcher.MatchTokens with
// Porter-stemmed matching (the MetaMap-equivalent configuration whose
// per-probe re-stemming this PR removes).
func BenchmarkColdMatcherStemmed(b *testing.B) {
	f := coldFix()
	m := extract.NewMatcherWithOptions(f.ont, extract.MatcherOptions{Stem: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchTokens(f.toks[i%len(f.toks)])
	}
}

// BenchmarkColdBuildSentences is the §4.1 initialization layer at the
// sentences granularity used by the service default.
func BenchmarkColdBuildSentences(b *testing.B) {
	f := coldFix()
	m := model.Metric{Ont: f.ont, Epsilon: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverage.Build(m, f.items[i%len(f.items)], model.GranularitySentences)
	}
}

// BenchmarkColdIndexSentences is the same graph built through the
// incremental index: NewIndex, one Advance over the whole item and
// Freeze, the lazy rebuild a store pays on an item's first stored
// summary. Set against BenchmarkColdBuildSentences, it is why Build
// stays the builder of the stateless path.
func BenchmarkColdIndexSentences(b *testing.B) {
	f := coldFix()
	m := model.Metric{Ont: f.ont, Epsilon: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := coverage.NewIndex(m, model.GranularitySentences)
		idx.Advance(f.items[i%len(f.items)])
		idx.Freeze()
	}
}

// BenchmarkColdGreedySentences is the selection layer alone over a
// prebuilt sentences graph.
func BenchmarkColdGreedySentences(b *testing.B) {
	f := coldFix()
	m := model.Metric{Ont: f.ont, Epsilon: 0.5}
	g := coverage.Build(m, f.items[0], model.GranularitySentences)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize.Greedy(g, benchK)
	}
}

// BenchmarkIndexGreedySentences is the selection layer at the scale
// of a followed item: GreedyWarm, seeded with its previous selection,
// on the index-frozen sentences graph of one 1,000-review doctor item
// (about 5,000 candidates). It must allocate only the Result and its
// Selected.
func BenchmarkIndexGreedySentences(b *testing.B) {
	f := coldFix()
	cfg := dataset.DoctorConfig(1)
	cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, 1000, 1000, 1000
	raw := dataset.GenerateWithOntology(cfg, f.ont).Items[0]
	raws := make([]extract.RawReview, len(raw.Reviews))
	for i, r := range raw.Reviews {
		raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	idx := coverage.NewIndex(model.Metric{Ont: f.ont, Epsilon: 0.5}, model.GranularitySentences)
	idx.Merge(f.pipe.AnnotateItem(raw.ID, raw.Name, raws).Reviews)
	g := idx.Freeze()
	prev := summarize.Greedy(g, benchK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize.GreedyWarm(g, benchK, prev)
	}
}

// BenchmarkColdCostOf evaluates a fixed selection against a prebuilt
// graph — the per-request evaluation path.
func BenchmarkColdCostOf(b *testing.B) {
	f := coldFix()
	m := model.Metric{Ont: f.ont, Epsilon: 0.5}
	g := coverage.Build(m, f.items[0], model.GranularitySentences)
	sel := summarize.Greedy(g, benchK).Selected
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CostOf(sel)
	}
}

// BenchmarkColdSummarize is the acceptance bench: the full cold path
// (annotate + build + greedy, sentences, doctor fixture) exactly as a
// cache miss pays it.
func BenchmarkColdSummarize(b *testing.B) {
	f := coldFix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(f.raws)
		item := f.sum.AnnotateItem("d", "Doc", f.raws[j])
		if _, err := f.sum.Summarize(item, benchK, Sentences, MethodGreedy); err != nil {
			b.Fatal(err)
		}
	}
}
