// Package dataset generates the synthetic corpora that stand in for the
// paper's evaluation data (§6.1, Table 1). The real corpora — Wikipedia
// revision histories, iPhone/MySQL manuals with human-expert ground truth,
// and Project Gutenberg e-books — are not available offline, so each is
// replaced by a seeded generator that reproduces the property the
// experiments actually measure:
//
//   - revision chains with controlled edit volatility (Figures 8–9),
//   - versioned manual chapters whose edit log doubles as exact ground
//     truth (Figures 10–11), and
//   - large e-books for fingerprint-database scaling (Figures 12–13).
//
// All generation is deterministic given a seed: each generator draws from
// its RNG in a fixed order, so a seed gives the same bytes on every run
// (TestGeneratorDigests pins them). Draws for a fixed n go through intn,
// which makes the same Int31 draws as rand.Rand.Intn and returns the same
// values (TestIntnMatchesRandIntn).
package dataset

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TextGen produces deterministic pseudo-English text from a synthetic
// vocabulary. Different articles use disjoint vocabulary slices where the
// experiments need guaranteed non-overlap. A TextGen is for one goroutine
// at a time, as its *rand.Rand is.
type TextGen struct {
	rng   *rand.Rand
	pick  intn   // draws a vocabulary index
	text  string // the vocabulary's words, end to end
	slots []slot // each word, and where it is in text

	// Scratch reused across calls: each method builds its result in buf
	// and converts it to a string once; parts holds the words or the
	// sentences of the paragraph an edit takes apart.
	buf   []byte
	parts []string
}

// syllable inventory for vocabulary construction.
var (
	onsets  = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "sl", "st", "th", "tr"}
	nuclei  = []string{"a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou"}
	stopper = []string{"", "n", "r", "s", "t", "l", "m", "nd", "st", "rt"}

	drawSyllables = newIntn(3)
	drawOnset     = newIntn(len(onsets))
	drawNucleus   = newIntn(len(nuclei))
	drawStop      = newIntn(len(stopper))
)

// slotBytes is the longest word the inventory spells: four syllables of a
// 2-byte onset and a 2-byte nucleus, then a 2-byte stop.
const slotBytes = 18

// slot holds a word left-aligned in slotBytes bytes, so appendSentence
// copies it with one fixed-size store, and the word's offset in text, so
// Word returns it without allocating.
type slot struct {
	b   [slotBytes]byte
	n   uint8
	off uint32
}

// The bits a word's key gives each index into onsets, nuclei and stopper.
const onsetBits, nucleusBits, stopBits = 5, 4, 4

// NewTextGen returns a generator with a vocabulary of size words derived
// from seed.
func NewTextGen(seed int64, size int) *TextGen {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]slot, 0, size)
	// A word is keyed by its indices, packed under a leading 1 bit that
	// fixes the syllable count. The key is as unique as the spelling:
	// onsets and stops are consonant runs and nuclei vowel runs, so a
	// spelling splits into its onsets, nuclei and stop one way only.
	seen := make(map[uint64]struct{}, size)
	total := 0
	for len(slots) < size {
		var w slot
		key := uint64(1)
		syllables := 2 + drawSyllables.draw(rng)
		for s := 0; s < syllables; s++ {
			o, v := drawOnset.draw(rng), drawNucleus.draw(rng)
			w.n += uint8(copy(w.b[w.n:], onsets[o]))
			w.n += uint8(copy(w.b[w.n:], nuclei[v]))
			key = key<<(onsetBits+nucleusBits) | uint64(o)<<nucleusBits | uint64(v)
			if s == syllables-1 {
				t := drawStop.draw(rng)
				w.n += uint8(copy(w.b[w.n:], stopper[t]))
				key = key<<stopBits | uint64(t)
			}
		}
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			w.off = uint32(total)
			slots = append(slots, w)
			total += int(w.n)
		}
	}
	var text strings.Builder
	text.Grow(total)
	for i := range slots {
		text.Write(slots[i].b[:slots[i].n])
	}
	return &TextGen{rng: rng, pick: newIntn(size), text: text.String(), slots: slots}
}

// Word returns one random vocabulary word.
func (g *TextGen) Word() string {
	w := &g.slots[g.pick.draw(g.rng)]
	return g.text[w.off : w.off+uint32(w.n)]
}

// Sentence returns a sentence of between minWords and maxWords words,
// capitalised and full-stopped.
func (g *TextGen) Sentence(minWords, maxWords int) string {
	g.buf = g.appendSentence(g.buf[:0], minWords, maxWords)
	return string(g.buf)
}

// Paragraph returns a paragraph of between minSentences and maxSentences
// sentences.
func (g *TextGen) Paragraph(minSentences, maxSentences int) string {
	g.buf = g.appendParagraph(g.buf[:0], minSentences, maxSentences)
	return string(g.buf)
}

// Rephrase rewrites a paragraph completely with fresh words, preserving
// only its approximate shape — the "same concept, different words" edit
// that escapes fingerprint tracking (§4.4).
func (g *TextGen) Rephrase(paragraph string) string {
	g.buf = g.appendSentences(g.buf[:0], max(strings.Count(paragraph, "."), 1))
	return string(g.buf)
}

// LightEdit perturbs a paragraph slightly: it replaces roughly frac of the
// words, keeping the bulk of the text (and its fingerprint) intact.
func (g *TextGen) LightEdit(paragraph string, frac float64) string {
	g.parts = appendFields(g.parts[:0], paragraph)
	words := g.parts
	changes := max(int(float64(len(words))*frac), 1)
	for c := 0; c < changes; c++ {
		i := g.rng.Intn(len(words))
		words[i] = g.Word()
	}
	return g.join(words)
}

// DropSentence removes one sentence (if the paragraph has more than one).
func (g *TextGen) DropSentence(paragraph string) string {
	g.parts = splitSentences(g.parts[:0], paragraph)
	sentences := g.parts
	if len(sentences) <= 1 {
		return paragraph
	}
	i := g.rng.Intn(len(sentences))
	return g.join(append(sentences[:i], sentences[i+1:]...))
}

// AppendSentence adds a fresh sentence to the paragraph.
func (g *TextGen) AppendSentence(paragraph string) string {
	g.buf = append(append(g.buf[:0], paragraph...), ' ')
	g.buf = g.appendSentence(g.buf, 8, 16)
	return string(g.buf)
}

// between returns a draw from [lo, hi], or lo without drawing when hi <= lo.
func (g *TextGen) between(lo, hi int) int {
	if hi > lo {
		lo += g.rng.Intn(hi - lo + 1)
	}
	return lo
}

// appendSentence appends to dst what Sentence returns.
func (g *TextGen) appendSentence(dst []byte, minWords, maxWords int) []byte {
	n := g.between(minWords, maxWords)
	start := len(dst)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ' ')
		}
		w := &g.slots[g.pick.draw(g.rng)]
		l := len(dst)
		dst = slices.Grow(dst, slotBytes)[:l+slotBytes]
		*(*[slotBytes]byte)(dst[l:]) = w.b
		dst = dst[:l+int(w.n)]
	}
	if len(dst) > start {
		dst[start] -= 'a' - 'A' // every word starts with a lower-case ASCII onset
	}
	return append(dst, '.')
}

// appendParagraph appends to dst what Paragraph returns.
func (g *TextGen) appendParagraph(dst []byte, minSentences, maxSentences int) []byte {
	return g.appendSentences(dst, g.between(minSentences, maxSentences))
}

// appendSentences appends n space-separated sentences of 8–16 words.
func (g *TextGen) appendSentences(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = g.appendSentence(dst, 8, 16)
	}
	return dst
}

// join returns parts separated by single spaces.
func (g *TextGen) join(parts []string) string {
	g.buf = g.buf[:0]
	for i, p := range parts {
		if i > 0 {
			g.buf = append(g.buf, ' ')
		}
		g.buf = append(g.buf, p...)
	}
	return string(g.buf)
}

// appendFields appends the fields of s to dst: its maximal runs of
// non-space runes, as strings.Fields splits it. Up to the first byte from
// utf8.RuneSelf up it compares bytes with unicode.IsSpace's ASCII spaces;
// from there on it decodes runes.
func appendFields(dst []string, s string) []string {
	start, i := -1, 0
	for ; i < len(s) && s[i] < utf8.RuneSelf; i++ {
		if c := s[i]; c == ' ' || '\t' <= c && c <= '\r' {
			if start >= 0 {
				dst, start = append(dst, s[start:i]), -1
			}
		} else if start < 0 {
			start = i
		}
	}
	for j, r := range s[i:] {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i + j
			}
		case start >= 0:
			dst, start = append(dst, s[start:i+j]), -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// splitSentences appends the sentences of paragraph to dst: the pieces
// that end at each full stop, and the tail after the last, with the space
// around them trimmed and empty ones dropped.
func splitSentences(dst []string, paragraph string) []string {
	for paragraph != "" {
		i := strings.IndexByte(paragraph, '.') + 1
		if i == 0 {
			i = len(paragraph)
		}
		if s := strings.TrimSpace(paragraph[:i]); s != "" {
			dst = append(dst, s)
		}
		paragraph = paragraph[i:]
	}
	return dst
}

// intn draws from [0, n) for one fixed n as rand.Rand.Intn(n) does: the
// same Int31 draws, rejected above the same bound, and the same value,
// v % n, taken by a multiply (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019). For a power of two, where Intn masks, the
// bound rejects nothing and the product is the masked value.
type intn struct {
	n     uint64
	max   int32  // the largest draw kept
	recip uint64 // ceil(2^64 / n), 0 for n = 1
}

// newIntn returns the draw for n, which must be in [1, 2^31-1].
func newIntn(n int) intn {
	return intn{n: uint64(n), max: int32(1<<31 - 1 - (1<<31)%uint32(n)), recip: ^uint64(0)/uint64(n) + 1}
}

// draw returns the next draw of rng, as rng.Intn(d.n) would.
func (d *intn) draw(rng *rand.Rand) int {
	for {
		if v := rng.Int31(); v <= d.max {
			hi, _ := bits.Mul64(d.recip*uint64(v), d.n)
			return int(hi)
		}
	}
}
