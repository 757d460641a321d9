// Package sentiment estimates the sentiment of a review sentence on
// the continuous scale [-1, +1] the framework requires (§2, §5.1).
//
// The paper computes sentence sentiment with doc2vec embeddings fed to
// a trained regression; it also notes (§6) that "any of these methods
// can be plugged into our framework". This package provides two
// interchangeable estimators behind the Estimator interface:
//
//   - Lexicon: an unsupervised opinion-lexicon scorer with negation
//     and intensifier handling (the Taboada et al. 2011 family);
//   - Ridge: a supervised hashed bag-of-words ridge regression trained
//     on review star ratings (the doc2vec-regression substitute).
package sentiment

import (
	"osars/internal/pos"
	"osars/internal/text"
)

// Estimator maps a tokenized sentence to a sentiment in [-1, +1].
type Estimator interface {
	EstimateSentence(tokens []string) float64
}

// opinionLexicon maps opinion words to prior polarities in [-1, +1].
// Strengths follow the usual graded-lexicon convention: ±1.0 extreme,
// ±0.75 strong, ±0.5 moderate, ±0.25 mild.
var opinionLexicon = map[string]float64{
	// strong positive
	"excellent": 1.0, "amazing": 1.0, "outstanding": 1.0, "superb": 1.0,
	"perfect": 1.0, "fantastic": 1.0, "wonderful": 1.0, "awesome": 1.0,
	"phenomenal": 1.0, "exceptional": 1.0, "brilliant": 1.0,
	"stunning": 1.0, "flawless": 1.0, "best": 1.0, "incredible": 1.0,
	"love": 0.9, "loved": 0.9, "loves": 0.9, "adore": 0.9,
	"great": 0.75, "impressive": 0.75, "beautiful": 0.75,
	"delightful": 0.75, "terrific": 0.75, "marvelous": 0.75,
	"superior": 0.75, "remarkable": 0.75, "gorgeous": 0.75,
	"caring": 0.75, "compassionate": 0.75, "thorough": 0.7,
	"knowledgeable": 0.75, "attentive": 0.7, "friendly": 0.7,
	"courteous": 0.7, "professional": 0.7, "recommend": 0.7,
	"recommended": 0.7, "happy": 0.7, "pleased": 0.7, "vivid": 0.7,
	"crisp": 0.7, "sleek": 0.6, "snappy": 0.6, "responsive": 0.6,
	"smooth": 0.6, "sharp": 0.6, "bright": 0.5, "comfortable": 0.6,
	"helpful": 0.6, "patient": 0.6, "gentle": 0.6, "kind": 0.6,
	"good": 0.5, "nice": 0.5, "solid": 0.5, "reliable": 0.6,
	"durable": 0.6, "sturdy": 0.6, "fast": 0.5, "quick": 0.5,
	"clean": 0.5, "clear": 0.5, "affordable": 0.5, "worth": 0.5,
	"pleasant": 0.5, "satisfied": 0.5, "fine": 0.25, "decent": 0.25,
	"okay": 0.25, "ok": 0.25, "adequate": 0.25, "acceptable": 0.25,
	"fair": 0.25, "works": 0.3, "worked": 0.3, "liked": 0.4,
	"like": 0.3, "likes": 0.3, "easy": 0.5, "smart": 0.5,
	"convenient": 0.5, "useful": 0.5, "handy": 0.4, "enjoy": 0.6,
	"enjoyed": 0.6, "glad": 0.5, "thank": 0.5, "thanks": 0.5,
	"grateful": 0.7, "accurate": 0.5, "efficient": 0.6,
	"punctual": 0.6, "prompt": 0.6, "listens": 0.6, "listened": 0.6,
	"spotless": 0.8, "immaculate": 0.8, "top-notch": 0.9,
	"first-rate": 0.9, "stellar": 0.9, "magnificent": 0.9,
	"splendid": 0.8, "refreshing": 0.6, "charming": 0.6,
	"cozy": 0.5, "inviting": 0.5, "generous": 0.6, "tasty": 0.6,
	"delicious": 0.8, "scrumptious": 0.9, "flavorful": 0.7,
	"attentively": 0.6, "seamless": 0.7, "intuitive": 0.6,
	"robust": 0.6, "premium": 0.5, "polished": 0.6, "silky": 0.6,
	"elegant":  0.6,
	"painless": 0.5, "hassle-free": 0.6, "worthwhile": 0.5,
	"dependable": 0.6, "trustworthy": 0.7, "honest": 0.6,
	"skilled": 0.6, "skillful": 0.6, "experienced": 0.5,
	"respectful": 0.6, "reassuring": 0.6, "empathetic": 0.7,
	"painstaking": 0.5, "meticulous": 0.7, "diligent": 0.6,

	// strong negative
	"terrible": -1.0, "horrible": -1.0, "awful": -1.0, "worst": -1.0,
	"atrocious": -1.0, "abysmal": -1.0, "dreadful": -1.0,
	"unacceptable": -1.0, "garbage": -1.0, "useless": -0.9,
	"hate": -0.9, "hated": -0.9, "disgusting": -0.9, "nightmare": -0.9,
	"incompetent": -0.9, "negligent": -0.9, "malpractice": -1.0,
	"scam": -0.9, "fraud": -0.9, "dangerous": -0.8,
	"bad": -0.75, "poor": -0.75, "disappointing": -0.75,
	"disappointed": -0.75, "defective": -0.8, "broken": -0.75,
	"rude": -0.8, "arrogant": -0.75, "dismissive": -0.75,
	"unprofessional": -0.8, "careless": -0.7, "painful": -0.7,
	"misdiagnosed": -0.9, "overpriced": -0.6, "expensive": -0.4,
	"laggy": -0.6, "glitchy": -0.7, "buggy": -0.7, "slow": -0.5,
	"flimsy": -0.6, "cheap": -0.4, "unreliable": -0.7, "crappy": -0.8,
	"mediocre": -0.5, "faulty": -0.7, "cracked": -0.6,
	"scratched": -0.5, "annoying": -0.6, "frustrating": -0.7,
	"frustrated": -0.6, "upset": -0.6, "angry": -0.7, "avoid": -0.7,
	"problem": -0.4, "problems": -0.4, "issue": -0.3, "issues": -0.3,
	"dull": -0.4, "dim": -0.4, "blurry": -0.5, "grainy": -0.5,
	"noisy": -0.4, "heavy": -0.25, "bulky": -0.3, "weak": -0.5,
	"dirty": -0.5, "late": -0.4, "wrong": -0.5, "worse": -0.6,
	"difficult": -0.4, "hard": -0.25, "waste": -0.7, "wasted": -0.7,
	"returned": -0.4, "refund": -0.5, "complaint": -0.5,
	"complained": -0.5, "died": -0.6, "dies": -0.6, "dying": -0.5,
	"drains": -0.5, "drained": -0.5, "overheats": -0.6,
	"overheating": -0.6, "freezes": -0.6, "froze": -0.6,
	"crashes": -0.7, "crashed": -0.7, "stopped": -0.4, "failed": -0.7,
	"fails": -0.6, "failure": -0.7, "error": -0.4, "errors": -0.4,
	"uncomfortable": -0.5, "unhappy": -0.6, "mad": -0.6,
	"impossible": -0.6, "never-again": -0.8, "regret": -0.7,
	"lousy": -0.7, "pathetic": -0.8, "insulting": -0.7,
	"condescending": -0.7, "unhelpful": -0.6, "ignored": -0.6,
	"rushed": -0.5, "unresponsive": -0.6,
	"filthy": -0.8, "greasy": -0.5, "stale": -0.6, "bland": -0.5,
	"soggy": -0.5, "undercooked": -0.7, "overcooked": -0.6,
	"burnt": -0.6, "inedible": -0.9, "tasteless": -0.6,
	"cramped": -0.5, "shabby": -0.5, "rundown": -0.6,
	"sketchy": -0.6, "chaotic": -0.6, "disorganized": -0.6,
	"understaffed": -0.5, "overbooked": -0.5, "overcrowded": -0.5,
	"clunky": -0.5, "convoluted": -0.5, "confusing": -0.5,
	"misleading": -0.7, "deceptive": -0.8, "dishonest": -0.8,
	"shoddy": -0.7, "subpar": -0.6, "lackluster": -0.5,
	"forgettable": -0.4, "underwhelming": -0.5, "overrated": -0.5,
	"smelly": -0.6, "leaky": -0.6, "wobbly": -0.5,
	"unstable": -0.6, "fragile": -0.5, "brittle": -0.5,
	"outdated": -0.4, "obsolete": -0.5, "sluggish": -0.5,
	"unbearable": -0.8, "infuriating": -0.8, "appalling": -0.9,
	"disgraceful": -0.8, "shameful": -0.7, "inexcusable": -0.8,
}

// intensifiers scale the following opinion word.
var intensifiers = map[string]float64{
	"very": 1.3, "really": 1.3, "extremely": 1.6, "incredibly": 1.6,
	"absolutely": 1.5, "totally": 1.4, "super": 1.4, "so": 1.3,
	"highly": 1.4, "exceptionally": 1.6, "remarkably": 1.4,
	"quite": 1.15, "pretty": 1.1, "fairly": 0.9, "somewhat": 0.6,
	"slightly": 0.5, "a-bit": 0.6, "rather": 1.1, "too": 1.2,
	"mildly": 0.6, "moderately": 0.75, "barely": 0.4, "almost": 0.8,
}

// negators flip (and dampen) the following opinion word: "not great"
// is weaker than "awful", so the flip multiplies by −0.75 rather than
// −1 (the shifted-negation finding of Taboada et al.).
var negators = map[string]bool{
	"not": true, "never": true, "no": true, "nothing": true,
	"neither": true, "nor": true, "cannot": true, "can't": true,
	"cant": true, "don't": true, "dont": true, "didn't": true,
	"didnt": true, "doesn't": true, "doesnt": true, "isn't": true,
	"isnt": true, "wasn't": true, "wasnt": true, "won't": true,
	"wont": true, "wouldn't": true, "wouldnt": true, "aren't": true,
	"arent": true, "weren't": true, "werent": true, "hardly": true,
	"without": true, "lacks": true, "lacking": true, "lack": true,
}

const negationFlip = -0.75

// negationWindow is how many tokens a negator reaches forward.
const negationWindow = 3

// Lexicon is the unsupervised estimator. The zero value is ready to
// use and safe for concurrent use.
type Lexicon struct {
	// Table, when non-empty, replaces the built-in opinion lexicon's
	// word→polarity table (values in [-1, +1]). Intensifiers and
	// negators are structural English and stay shared. The zero value
	// keeps the built-in behavior. The map must not be mutated after
	// the Lexicon is in use.
	Table map[string]float64
}

var _ Estimator = Lexicon{}

// lexicon returns the effective word→polarity table.
func (l Lexicon) lexicon() map[string]float64 {
	if len(l.Table) > 0 {
		return l.Table
	}
	return opinionLexicon
}

// Score is a convenience for scoring raw text (tokenizes first).
func (l Lexicon) Score(sentence string) float64 {
	return l.EstimateSentence(text.Tokenize(sentence))
}

// EstimateSentence scores a tokenized sentence: each opinion word
// contributes its prior polarity, scaled by a preceding intensifier
// and flipped by a preceding negator within the negation window; the
// sentence score is the average contribution clamped to [-1, +1].
// Sentences without opinion words score 0 (neutral).
//
// Compiled.EstimateIDs applies the same rules to token IDs; a change
// here must be made there too.
func (l Lexicon) EstimateSentence(tokens []string) float64 {
	lex := l.lexicon()
	total := 0.0
	n := 0
	for i, tok := range tokens {
		prior, ok := lex[tok]
		if !ok {
			continue
		}
		score := prior
		// Look back for an intensifier chain and a negator.
		scale := 1.0
		negated := false
		for back := 1; back <= negationWindow && i-back >= 0; back++ {
			prev := tokens[i-back]
			if back == 1 {
				if mult, ok := intensifiers[prev]; ok {
					scale = mult
					continue
				}
			}
			if negators[prev] {
				negated = true
				break
			}
			// Stop scanning past another content word.
			if _, isOpinion := lex[prev]; isOpinion {
				break
			}
			if tg := pos.TagWord(prev); tg == pos.Noun || tg == pos.Verb {
				break
			}
		}
		score *= scale
		if negated {
			score *= negationFlip
		}
		total += score
		n++
	}
	if n == 0 {
		return 0
	}
	avg := total / float64(n)
	return clamp(avg)
}

// Compiled is a Lexicon compiled over a token vocabulary, for
// annotators that intern each token once and then work on IDs.
type Compiled struct {
	words []compiledWord // indexed by token ID
}

type compiledWord struct {
	prior float64 // opinion prior, when flags has isOpinion
	scale float64 // intensifier multiplier, when flags has isIntensifier
	flags uint8
}

const (
	isOpinion uint8 = 1 << iota
	isIntensifier
	isNegator
	isNounOrVerb // pos.TagWord is Noun or Verb
)

// Compile interns the lexicon's opinion words, intensifiers and
// negators into vocab, which maps tokens to the dense IDs
// 0..len(vocab)-1; a word vocab lacks gets the next free ID. It
// returns the lexicon over vocab's IDs. vocab must not change
// afterwards.
func (l Lexicon) Compile(vocab map[string]int32) *Compiled {
	intern := func(w string) {
		if _, ok := vocab[w]; !ok {
			vocab[w] = int32(len(vocab))
		}
	}
	lex := l.lexicon()
	for w := range lex {
		intern(w)
	}
	for w := range intensifiers {
		intern(w)
	}
	for w := range negators {
		intern(w)
	}
	c := &Compiled{words: make([]compiledWord, len(vocab))}
	for w, t := range vocab {
		x := &c.words[t]
		if p, ok := lex[w]; ok {
			x.prior, x.flags = p, x.flags|isOpinion
		}
		if s, ok := intensifiers[w]; ok {
			x.scale, x.flags = s, x.flags|isIntensifier
		}
		if negators[w] {
			x.flags |= isNegator
		}
		if tg := pos.TagWord(w); tg == pos.Noun || tg == pos.Verb {
			x.flags |= isNounOrVerb
		}
	}
	return c
}

// EstimateIDs is EstimateSentence over a sentence's token IDs, -1
// marking a token outside the vocabulary. It applies the same rules
// with the same float operations in the same order, so the scores are
// bit-identical. An unknown token is no opinion word, intensifier or
// negator; only its part of speech can end a look-back, so
// unknownNounOrVerb(i) reports whether token i tags as a noun or verb.
func (c *Compiled) EstimateIDs(ids []int32, unknownNounOrVerb func(i int) bool) float64 {
	total := 0.0
	n := 0
	for i, t := range ids {
		if t < 0 || c.words[t].flags&isOpinion == 0 {
			continue
		}
		score := c.words[t].prior
		// Look back for an intensifier chain and a negator.
		scale := 1.0
		negated := false
		for back := 1; back <= negationWindow && i-back >= 0; back++ {
			prev := ids[i-back]
			if prev < 0 {
				if unknownNounOrVerb(i - back) {
					break
				}
				continue
			}
			w := &c.words[prev]
			if back == 1 && w.flags&isIntensifier != 0 {
				scale = w.scale
				continue
			}
			if w.flags&isNegator != 0 {
				negated = true
				break
			}
			// Stop scanning past another content word.
			if w.flags&(isOpinion|isNounOrVerb) != 0 {
				break
			}
		}
		score *= scale
		if negated {
			score *= negationFlip
		}
		total += score
		n++
	}
	if n == 0 {
		return 0
	}
	avg := total / float64(n)
	return clamp(avg)
}

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// HasOpinionWord reports whether any token carries a lexicon polarity
// (used by double propagation to seed opinion words).
func HasOpinionWord(tokens []string) bool {
	for _, t := range tokens {
		if _, ok := opinionLexicon[t]; ok {
			return true
		}
	}
	return false
}

// Polarity returns the prior polarity of a single word and whether it
// is in the opinion lexicon.
func Polarity(word string) (float64, bool) {
	v, ok := opinionLexicon[word]
	return v, ok
}

// SeedOpinionWords returns a copy of the opinion lexicon's words with
// their polarities, for seeding double propagation.
func SeedOpinionWords() map[string]float64 {
	out := make(map[string]float64, len(opinionLexicon))
	for w, v := range opinionLexicon {
		out[w] = v
	}
	return out
}
