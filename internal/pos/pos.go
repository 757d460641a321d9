// Package pos is a compact lexicon- and suffix-rule part-of-speech
// tagger. It substitutes for the dependency parser the double
// propagation aspect extractor (Qiu et al. 2011) consumes in the paper
// (§5.1): propagation only needs to tell nouns, adjectives, adverbs,
// verbs and a few closed classes apart on short review sentences, so a
// rule tagger with a core English lexicon suffices.
package pos

import (
	"strings"
	"unicode"
)

// Tag is a coarse part-of-speech tag.
type Tag uint8

// The tag set. Coarse by design: double propagation and the sentiment
// scorer only branch on these classes.
const (
	Noun Tag = iota
	Verb
	Adj
	Adv
	Pron
	Det
	Prep
	Conj
	Num
	Neg // explicit negation tokens: not, never, n't …
	Other
)

func (t Tag) String() string {
	switch t {
	case Noun:
		return "NOUN"
	case Verb:
		return "VERB"
	case Adj:
		return "ADJ"
	case Adv:
		return "ADV"
	case Pron:
		return "PRON"
	case Det:
		return "DET"
	case Prep:
		return "PREP"
	case Conj:
		return "CONJ"
	case Num:
		return "NUM"
	case Neg:
		return "NEG"
	default:
		return "OTHER"
	}
}

// closed-class and core open-class lexicon. Review vocabulary is
// heavily skewed; a small curated lexicon plus suffix rules covers it
// well.
var lexicon = map[string]Tag{
	// determiners
	"a": Det, "an": Det, "the": Det, "this": Det, "that": Det,
	"these": Det, "those": Det, "some": Det, "any": Det, "each": Det,
	"every": Det, "no": Det, "another": Det, "such": Det,
	"both": Det, "all": Det, "few": Det, "many": Det, "much": Det,
	"several": Det, "most": Det, "other": Det, "own": Det,
	// pronouns
	"i": Pron, "me": Pron, "my": Pron, "we": Pron, "us": Pron,
	"our": Pron, "you": Pron, "your": Pron, "he": Pron, "him": Pron,
	"his": Pron, "she": Pron, "her": Pron, "it": Pron, "its": Pron,
	"they": Pron, "them": Pron, "their": Pron, "who": Pron,
	"what": Pron, "which": Pron, "anyone": Pron, "everyone": Pron,
	"something": Pron, "anything": Pron, "everything": Pron,
	// prepositions
	"of": Prep, "in": Prep, "on": Prep, "at": Prep, "by": Prep,
	"for": Prep, "with": Prep, "about": Prep, "from": Prep, "to": Prep,
	"into": Prep, "over": Prep, "under": Prep, "after": Prep,
	"before": Prep, "between": Prep, "during": Prep, "without": Prep,
	"through": Prep, "against": Prep,
	// conjunctions
	"and": Conj, "or": Conj, "but": Conj, "because": Conj, "if": Conj,
	"while": Conj, "although": Conj, "though": Conj, "since": Conj,
	"so": Conj, "than": Conj, "when": Conj, "as": Conj,
	// negations
	"not": Neg, "never": Neg, "no one": Neg, "nothing": Neg,
	"neither": Neg, "nor": Neg, "cannot": Neg, "n't": Neg,
	"dont": Neg, "didnt": Neg, "wont": Neg, "cant": Neg,
	"doesnt": Neg, "isnt": Neg, "wasnt": Neg, "arent": Neg,
	"werent": Neg, "hardly": Neg, "barely": Neg, "scarcely": Neg,
	// auxiliaries / common verbs
	"am": Verb, "is": Verb, "are": Verb, "was": Verb, "were": Verb,
	"be": Verb, "been": Verb, "being": Verb, "have": Verb, "has": Verb,
	"had": Verb, "do": Verb, "does": Verb, "did": Verb, "will": Verb,
	"would": Verb, "can": Verb, "could": Verb, "should": Verb,
	"may": Verb, "might": Verb, "must": Verb, "shall": Verb,
	"get": Verb, "got": Verb, "gets": Verb, "getting": Verb,
	"go": Verb, "went": Verb, "goes": Verb, "make": Verb, "makes": Verb,
	"made": Verb, "take": Verb, "takes": Verb, "took": Verb,
	"come": Verb, "came": Verb, "comes": Verb, "see": Verb, "saw": Verb,
	"know": Verb, "knew": Verb, "think": Verb, "thought": Verb,
	"feel": Verb, "felt": Verb, "say": Verb, "said": Verb,
	"found": Verb, "find": Verb, "finds": Verb, "walked": Verb,
	"ordered": Verb, "paid": Verb, "pay": Verb, "sat": Verb,
	"tell": Verb, "told": Verb, "give": Verb, "gave": Verb,
	"keep": Verb, "kept": Verb, "let": Verb, "seem": Verb,
	"seems": Verb, "seemed": Verb, "work": Verb, "works": Verb,
	"worked": Verb, "use": Verb, "used": Verb, "uses": Verb,
	"buy": Verb, "bought": Verb, "recommend": Verb, "recommends": Verb,
	"love": Verb, "loved": Verb, "loves": Verb, "hate": Verb,
	"hated": Verb, "like": Verb, "liked": Verb, "likes": Verb,
	"want": Verb, "wanted": Verb, "need": Verb, "needed": Verb,
	"try": Verb, "tried": Verb, "wish": Verb, "broke": Verb,
	"breaks": Verb, "lasted": Verb, "lasts": Verb, "charge": Verb,
	"charges": Verb, "returned": Verb, "return": Verb,
	"waited": Verb, "listens": Verb, "listen": Verb, "listened": Verb,
	"explains": Verb, "explain": Verb, "explained": Verb,
	"cares": Verb, "care": Verb, "cared": Verb, "treats": Verb,
	"treat": Verb, "treated": Verb, "helped": Verb, "helps": Verb,
	"help": Verb, "answered": Verb, "answers": Verb, "answer": Verb,
	// core adjectives (incl. review-domain sentiment adjectives)
	"good": Adj, "great": Adj, "bad": Adj, "best": Adj, "worst": Adj,
	"better": Adj, "worse": Adj, "nice": Adj, "poor": Adj,
	"excellent": Adj, "terrible": Adj, "awful": Adj, "amazing": Adj,
	"awesome": Adj, "horrible": Adj, "fantastic": Adj, "perfect": Adj,
	"wonderful": Adj, "outstanding": Adj, "superb": Adj, "fine": Adj,
	"decent": Adj, "solid": Adj, "cheap": Adj, "expensive": Adj,
	"fast": Adj, "slow": Adj, "quick": Adj, "long": Adj, "short": Adj,
	"big": Adj, "small": Adj, "large": Adj, "huge": Adj, "tiny": Adj,
	"new": Adj, "old": Adj, "easy": Adj, "hard": Adj, "sharp": Adj,
	"bright": Adj, "dim": Adj, "clear": Adj, "crisp": Adj,
	"smooth": Adj, "rough": Adj, "loud": Adj, "quiet": Adj,
	"clean": Adj, "dirty": Adj, "happy": Adj, "sad": Adj,
	"rude": Adj, "kind": Adj, "gentle": Adj, "patient": Adj,
	"thorough": Adj, "caring": Adj, "friendly": Adj, "professional": Adj,
	"knowledgeable": Adj, "attentive": Adj, "compassionate": Adj,
	"courteous": Adj, "helpful": Adj, "responsive": Adj,
	"sturdy": Adj, "flimsy": Adj, "durable": Adj, "reliable": Adj,
	"unreliable": Adj, "defective": Adj, "broken": Adj, "smart": Adj,
	"stupid": Adj, "beautiful": Adj, "ugly": Adj, "sleek": Adj,
	"bulky": Adj, "light": Adj, "heavy": Adj, "thin": Adj,
	"thick": Adj, "late": Adj, "early": Adj, "right": Adj,
	"wrong": Adj, "free": Adj, "full": Adj, "empty": Adj, "weak": Adj,
	"strong": Adj, "low": Adj, "high": Adj, "crappy": Adj,
	"mediocre": Adj, "disappointing": Adj, "impressive": Adj,
	"overpriced": Adj, "affordable": Adj, "stunning": Adj,
	"vivid": Adj, "dull": Adj, "snappy": Adj, "laggy": Adj,
	"glitchy": Adj, "buggy": Adj,
	// core adverbs
	"very": Adv, "really": Adv, "extremely": Adv, "quite": Adv,
	"too": Adv, "somewhat": Adv, "rather": Adv, "pretty": Adv,
	"fairly": Adv, "incredibly": Adv, "super": Adv, "highly": Adv,
	"totally": Adv, "absolutely": Adv, "slightly": Adv, "almost": Adv,
	"always": Adv, "often": Adv, "sometimes": Adv, "usually": Adv,
	"rarely": Adv, "here": Adv, "there": Adv, "again": Adv,
	"still": Adv, "already": Adv, "just": Adv, "even": Adv,
	"also": Adv, "well": Adv, "now": Adv, "then": Adv, "ever": Adv,
	"away": Adv, "back": Adv, "however": Adv,
	// common review nouns that suffix rules would misclassify
	"battery": Noun, "screen": Noun, "display": Noun, "camera": Noun,
	"price": Noun, "phone": Noun, "doctor": Noun, "staff": Noun,
	"office": Noun, "time": Noun, "service": Noun, "quality": Noun,
	"button": Noun, "speaker": Noun, "charger": Noun, "keyboard": Noun,
	"design": Noun, "size": Noun, "weight": Noun, "color": Noun,
	"sound": Noun, "storage": Noun, "memory": Noun, "processor": Noun,
	"software": Noun, "hardware": Noun, "warranty": Noun,
	"shipping": Noun, "delivery": Noun, "insurance": Noun,
	"appointment": Noun, "visit": Noun, "treatment": Noun,
	"diagnosis": Noun, "surgery": Noun, "medication": Noun,
	"nurse": Noun, "receptionist": Noun, "bedside": Noun,
	"manner": Noun, "wait": Noun, "experience": Noun, "thing": Noun,
	"lot": Noun, "bit": Noun, "day": Noun, "week": Noun, "month": Noun,
	"year": Noun, "hour": Noun, "minute": Noun, "people": Noun,
	"person": Noun, "way": Noun, "value": Noun, "money": Noun,
	"resolution": Noun, "brightness": Noun, "touchscreen": Noun,
	"fingerprint": Noun, "bluetooth": Noun, "wifi": Noun,
	"signal": Noun, "reception": Noun, "interface": Noun, "app": Noun,
	"apps": Noun, "update": Noun, "system": Noun, "android": Noun,
	"life": Noun, "charging": Noun, "texting": Noun, "calling": Noun,
}

// TagWord tags a single (lowercased) token with lexicon lookup first
// and morphological suffix rules as fallback. Unknown words default to
// Noun, the most productive open class in reviews — the same default
// MetaMap-era taggers use.
//
// TagWord does not retain w, so tagging string(b) for a byte slice b
// of up to 32 bytes does not allocate: the compiler converts into a
// stack buffer. The one-pass annotator in internal/extract relies on
// this to tag lowered tokens.
func TagWord(w string) Tag {
	if w == "" {
		return Other
	}
	if t, ok := lexicon[w]; ok {
		return t
	}
	if isNumeric(w) {
		return Num
	}
	switch {
	case strings.HasSuffix(w, "ly") && len(w) > 4:
		return Adv
	case hasAnySuffix(w, "ous", "ful", "ive", "able", "ible", "ic",
		"ish", "less", "est", "ier", "iest"):
		return Adj
	case hasAnySuffix(w, "ize", "ise", "ify", "ated"):
		return Verb
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		// Gerunds in reviews are mostly verbal ("kept dropping");
		// common nominal -ing words are in the lexicon.
		return Verb
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		return Verb
	default:
		return Noun
	}
}

func isNumeric(w string) bool {
	for _, r := range w {
		if !unicode.IsDigit(r) && r != '.' && r != ',' {
			return false
		}
	}
	return true
}

func hasAnySuffix(w string, suffixes ...string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(w, s) && len(w) > len(s)+2 {
			return true
		}
	}
	return false
}

// Tagged is a token with its tag.
type Tagged struct {
	Word string
	Tag  Tag
}

// TagSentence tags a tokenized sentence, applying two context repairs
// after the word-level pass: a word directly after a determiner that
// was tagged Verb becomes Noun ("the charging ..."), and an
// Adj directly before the sentence end after a linking verb stays Adj.
func TagSentence(tokens []string) []Tagged {
	out := make([]Tagged, len(tokens))
	for i, tok := range tokens {
		out[i] = Tagged{Word: tok, Tag: TagWord(tok)}
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Tag == Det && out[i].Tag == Verb {
			out[i].Tag = Noun
		}
	}
	return out
}
