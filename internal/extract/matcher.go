// Package extract turns raw review text into the concept-sentiment
// pairs the summarization framework consumes (§2 task (a), §5.1).
//
// Three extractors are provided, mirroring the paper's setup:
//
//   - Matcher: a trie-based longest-match dictionary annotator over an
//     ontology's concept names and synonyms — the stand-in for MetaMap
//     over SNOMED CT in the doctor-review pipeline;
//   - DoublePropagation: the Qiu et al. (2011) bootstrapping aspect
//     extractor used for the cell-phone pipeline;
//   - FrequentAspects: the Hu & Liu (2004) frequency miner, used by
//     the "most popular" baseline and as a DP fallback.
//
// Pipeline composes a matcher with a sentiment estimator to produce
// model.Item values ready for coverage-graph construction.
package extract

import (
	"sync"

	"osars/internal/ontology"
	"osars/internal/text"
)

// Matcher annotates token streams with ontology concepts by greedy
// longest match over concept names and synonyms. Matching is
// case-insensitive and token-based; multi-word concepts ("display
// color", "wait time") match as phrases. Safe for concurrent use after
// construction.
//
// Every normalized concept-name token is interned as a dense int32 ID,
// and the phrases form a flat trie over those IDs: node 0 is the root,
// root[t] is the root's child on token t, edges[n<<32|t] is the child
// of node n > 0 on token t, and a child of 0 means none. Matching
// hashes each token once to find its ID; every probe after that is an
// array index or an integer-keyed map lookup.
type Matcher struct {
	ont *ontology.Ontology
	// ids interns each normalized concept-name token.
	ids   map[string]int32
	root  []int32
	edges map[uint64]int32
	// concept is the concept ending at each trie node (None if
	// internal).
	concept []ontology.ConceptID
	// maxLen is the longest phrase in tokens, bounding lookahead.
	maxLen int
	// stem normalizes tokens with the Porter stemmer on both sides,
	// so "batteries" matches the "battery" concept — the equivalent of
	// MetaMap's lexical-variant matching.
	stem bool
}

// MatcherOptions configure NewMatcherWithOptions.
type MatcherOptions struct {
	// Stem enables Porter-stemmed matching ("batteries" → "battery").
	Stem bool
}

// NewMatcher indexes every concept name and synonym of the ontology
// with exact-token matching. The root concept itself is not indexed: a
// review mentioning the domain ("this phone") carries no aspect
// information.
func NewMatcher(ont *ontology.Ontology) *Matcher {
	return NewMatcherWithOptions(ont, MatcherOptions{})
}

// NewMatcherWithOptions is NewMatcher with configurable normalization.
func NewMatcherWithOptions(ont *ontology.Ontology, opt MatcherOptions) *Matcher {
	m := &Matcher{
		ont:     ont,
		ids:     map[string]int32{},
		edges:   make(map[uint64]int32, ont.Len()),
		concept: []ontology.ConceptID{ontology.None},
		stem:    opt.Stem,
	}
	for id := ontology.ConceptID(0); int(id) < ont.Len(); id++ {
		if id == ont.Root() {
			continue
		}
		m.index(ont.Name(id), id)
		for _, syn := range ont.Synonyms(id) {
			m.index(syn, id)
		}
	}
	return m
}

func (m *Matcher) norm(tok string) string {
	if m.stem {
		return text.Stem(tok)
	}
	return tok
}

func (m *Matcher) index(phrase string, id ontology.ConceptID) {
	tokens := text.Tokenize(phrase)
	if len(tokens) == 0 {
		return
	}
	if len(tokens) > m.maxLen {
		m.maxLen = len(tokens)
	}
	node := int32(0)
	for _, tok := range tokens {
		t := m.intern(m.norm(tok))
		next := m.child(node, t)
		if next == 0 {
			next = int32(len(m.concept))
			m.concept = append(m.concept, ontology.None)
			if node == 0 {
				m.root[t] = next
			} else {
				m.edges[edgeKey(node, t)] = next
			}
		}
		node = next
	}
	// First indexing wins; a synonym shared by two concepts keeps the
	// earlier (more general, since parents are added first) concept.
	if m.concept[node] == ontology.None {
		m.concept[node] = id
	}
}

// intern returns tok's ID, assigning the next one to a new token.
func (m *Matcher) intern(tok string) int32 {
	if t, ok := m.ids[tok]; ok {
		return t
	}
	t := int32(len(m.root))
	m.ids[tok] = t
	m.root = append(m.root, 0)
	return t
}

func edgeKey(node, tok int32) uint64 { return uint64(node)<<32 | uint64(tok) }

// child returns node's child on token t, or 0 when there is none. t is
// -1 for an unknown token, and may be an ID past the matcher's own
// tokens (a pipeline vocabulary extends the matcher's): neither has a
// child.
func (m *Matcher) child(node, t int32) int32 {
	if node == 0 {
		if uint32(t) < uint32(len(m.root)) {
			return m.root[t]
		}
		return 0
	}
	if t < 0 {
		return 0
	}
	return m.edges[edgeKey(node, t)]
}

// Match is one concept occurrence in a token stream.
type Match struct {
	Concept ontology.ConceptID
	// Start and End delimit the matched tokens [Start, End).
	Start, End int
}

// idPool recycles the per-call token-ID buffers of MatchTokens.
var idPool = sync.Pool{New: func() any { return new([]int32) }}

// MatchTokens scans a tokenized sentence left to right, emitting the
// longest concept match at each position (overlapping shorter matches
// are suppressed, as in MetaMap's longest-spanning-candidate default).
//
// Each token is normalized (stemmed, when enabled) and mapped to its
// ID exactly once, up front, into a pooled buffer; the scan then reads
// only IDs, although it probes a position up to maxLen times.
func (m *Matcher) MatchTokens(tokens []string) []Match {
	bufp := idPool.Get().(*[]int32)
	ids := (*bufp)[:0]
	for _, tok := range tokens {
		t, ok := m.ids[m.norm(tok)]
		if !ok {
			t = -1
		}
		ids = append(ids, t)
	}
	out := m.appendMatches(nil, ids)
	*bufp = ids
	idPool.Put(bufp)
	return out
}

// appendMatches is the matching scan of MatchTokens over token IDs
// (-1 for a token the matcher does not know); it appends the matches
// to out.
func (m *Matcher) appendMatches(out []Match, ids []int32) []Match {
	for i := 0; i < len(ids); {
		node := int32(0)
		bestEnd := -1
		best := ontology.None
		for j := i; j < len(ids) && j-i < m.maxLen; j++ {
			if node = m.child(node, ids[j]); node == 0 {
				break
			}
			if c := m.concept[node]; c != ontology.None {
				best = c
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

// MatchText tokenizes and matches raw text.
func (m *Matcher) MatchText(s string) []Match {
	return m.MatchTokens(text.Tokenize(s))
}

// Ontology returns the ontology the matcher was built over.
func (m *Matcher) Ontology() *ontology.Ontology { return m.ont }
