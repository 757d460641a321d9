package extract

import (
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
	"osars/internal/text"
)

// trieNode is one node of the pointer trie the matcher used before the
// flat token-ID trie: a Go map per node, keyed by token string. It
// survives here as the oracle the one-pass annotator is checked
// against.
type trieNode struct {
	children map[string]*trieNode
	// concept is the concept ending at this node (None if internal).
	concept ontology.ConceptID
}

// ReferencePipeline is the annotation pipeline as it was before token
// interning: SplitSentences → Tokenize → longest match over the
// pointer trie → EstimateSentence on every sentence with a match. It
// is exported for the package's external tests.
type ReferencePipeline struct {
	root   *trieNode
	maxLen int
	stem   bool
	est    sentiment.Estimator
}

// NewReferencePipeline indexes the ontology as NewMatcherWithOptions
// does and scores with est.
func NewReferencePipeline(ont *ontology.Ontology, opt MatcherOptions, est sentiment.Estimator) *ReferencePipeline {
	r := &ReferencePipeline{root: &trieNode{concept: ontology.None}, stem: opt.Stem, est: est}
	for id := ontology.ConceptID(0); int(id) < ont.Len(); id++ {
		if id == ont.Root() {
			continue
		}
		r.index(ont.Name(id), id)
		for _, syn := range ont.Synonyms(id) {
			r.index(syn, id)
		}
	}
	return r
}

func (r *ReferencePipeline) norm(tok string) string {
	if r.stem {
		return text.Stem(tok)
	}
	return tok
}

func (r *ReferencePipeline) index(phrase string, id ontology.ConceptID) {
	tokens := text.Tokenize(phrase)
	if len(tokens) == 0 {
		return
	}
	if len(tokens) > r.maxLen {
		r.maxLen = len(tokens)
	}
	node := r.root
	for _, tok := range tokens {
		tok = r.norm(tok)
		if node.children == nil {
			node.children = make(map[string]*trieNode)
		}
		next, ok := node.children[tok]
		if !ok {
			next = &trieNode{concept: ontology.None}
			node.children[tok] = next
		}
		node = next
	}
	if node.concept == ontology.None {
		node.concept = id
	}
}

// MatchTokens is the longest-match scan over the pointer trie.
func (r *ReferencePipeline) MatchTokens(tokens []string) []Match {
	var out []Match
	for i := 0; i < len(tokens); {
		node := r.root
		bestEnd := -1
		best := ontology.None
		for j := i; j < len(tokens) && j-i < r.maxLen; j++ {
			next, ok := node.children[r.norm(tokens[j])]
			if !ok {
				break
			}
			node = next
			if node.concept != ontology.None {
				best = node.concept
				bestEnd = j + 1
			}
		}
		if best != ontology.None {
			out = append(out, Match{Concept: best, Start: i, End: bestEnd})
			i = bestEnd
			continue
		}
		i++
	}
	return out
}

// AnnotateReview annotates one review on the []string path.
func (r *ReferencePipeline) AnnotateReview(id, raw string, rating float64) model.Review {
	rev := model.Review{ID: id, Rating: rating}
	for _, sent := range text.SplitSentences(raw) {
		tokens := text.Tokenize(sent)
		s := model.Sentence{Text: sent}
		if matches := r.MatchTokens(tokens); len(matches) > 0 {
			score := r.est.EstimateSentence(tokens)
			for _, mt := range matches {
				s.Pairs = append(s.Pairs, model.Pair{Concept: mt.Concept, Sentiment: score})
			}
		}
		rev.Sentences = append(rev.Sentences, s)
	}
	return rev
}
