package extract

import (
	"sync"

	"osars/internal/model"
	"osars/internal/pos"
	"osars/internal/sentiment"
	"osars/internal/text"
)

// lexVocab is the one-pass annotator's view of an unstemmed matcher
// and a sentiment.Lexicon: ids is m's token vocabulary extended with
// the lexicon's words, so matching and scoring read the same IDs.
type lexVocab struct {
	m   *Matcher
	ids map[string]int32
	lex *sentiment.Compiled
}

// annotateScratch is the pooled per-review state of the one-pass
// annotator.
type annotateScratch struct {
	scan    text.Scan
	ids     []int32 // per token: its ID, -1 when unknown
	low     []byte  // an uppercase token, lowered
	matches []Match
	pairs   []model.Pair // the review's pairs, in order
	ends    []int        // per sentence: the end of its pairs
}

var annotatePool = sync.Pool{New: func() any { return new(annotateScratch) }}

// annotate is AnnotateReview in one pass over interned tokens: one
// text.Scan finds the sentences and token spans, each token is looked
// up once, and matching and scoring read IDs. The review owns one
// []Sentence and one []Pair; each sentence's Pairs is a capped window
// of the latter. It reports false for text with a non-ASCII byte.
func (v *lexVocab) annotate(id, raw string, rating float64) (model.Review, bool) {
	st := annotatePool.Get().(*annotateScratch)
	defer annotatePool.Put(st)
	if !st.scan.ScanASCII(raw) {
		return model.Review{}, false
	}
	st.ids = st.ids[:0]
	for _, tk := range st.scan.Tokens {
		st.ids = append(st.ids, v.lookup(raw, tk, st))
	}
	st.pairs, st.ends = st.pairs[:0], st.ends[:0]
	for _, s := range st.scan.Sentences {
		ids := st.ids[s.TokStart:s.TokEnd]
		st.matches = v.m.appendMatches(st.matches[:0], ids)
		if len(st.matches) > 0 {
			toks := st.scan.Tokens[s.TokStart:s.TokEnd]
			score := v.lex.EstimateIDs(ids, func(i int) bool { return st.nounOrVerb(raw, toks[i]) })
			for _, mt := range st.matches {
				st.pairs = append(st.pairs, model.Pair{Concept: mt.Concept, Sentiment: score})
			}
		}
		st.ends = append(st.ends, len(st.pairs))
	}

	r := model.Review{ID: id, Rating: rating}
	if len(st.scan.Sentences) == 0 {
		return r, true
	}
	r.Sentences = make([]model.Sentence, len(st.scan.Sentences))
	var pairs []model.Pair
	if len(st.pairs) > 0 {
		pairs = make([]model.Pair, len(st.pairs))
		copy(pairs, st.pairs)
	}
	lo := 0
	for i, s := range st.scan.Sentences {
		r.Sentences[i].Text = raw[s.Start:s.End]
		if hi := st.ends[i]; hi > lo {
			r.Sentences[i].Pairs = pairs[lo:hi:hi]
			lo = hi
		}
	}
	return r, true
}

// lookup returns the ID of token tk of raw, or -1.
func (v *lexVocab) lookup(raw string, tk text.Token, st *annotateScratch) int32 {
	var t int32
	var ok bool
	if tk.Upper {
		st.low = text.AppendLowerASCII(st.low[:0], raw[tk.Start:tk.End])
		t, ok = v.ids[string(st.low)]
	} else {
		t, ok = v.ids[raw[tk.Start:tk.End]]
	}
	if !ok {
		return -1
	}
	return t
}

// nounOrVerb tags token tk of raw, lowering an uppercase token into the
// scratch buffer. pos.TagWord does not retain its argument, so tokens
// of up to 32 bytes are tagged without allocating.
func (st *annotateScratch) nounOrVerb(raw string, tk text.Token) bool {
	var tg pos.Tag
	if tk.Upper {
		st.low = text.AppendLowerASCII(st.low[:0], raw[tk.Start:tk.End])
		tg = pos.TagWord(string(st.low))
	} else {
		tg = pos.TagWord(raw[tk.Start:tk.End])
	}
	return tg == pos.Noun || tg == pos.Verb
}
