package fingerprint

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/lsds/browserflow/internal/dataset"
)

// smallCfg keeps tests readable: 6-grams, windows of 3 hashes.
var smallCfg = Config{NGram: 6, Window: 3}

func mustCompute(t *testing.T, text string, cfg Config) *Fingerprint {
	t.Helper()
	fp, err := Compute(text, cfg)
	if err != nil {
		t.Fatalf("Compute(%q): %v", text, err)
	}
	return fp
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "default", cfg: DefaultConfig(), wantErr: false},
		{name: "zero ngram", cfg: Config{NGram: 0, Window: 3}, wantErr: true},
		{name: "zero window", cfg: Config{NGram: 3, Window: 0}, wantErr: true},
		{name: "negative", cfg: Config{NGram: -1, Window: -1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate()=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestGuaranteeThreshold(t *testing.T) {
	if got := DefaultConfig().GuaranteeThreshold(); got != 44 {
		t.Errorf("GuaranteeThreshold()=%d, want 44", got)
	}
}

func TestComputeShortText(t *testing.T) {
	fp := mustCompute(t, "hi!", DefaultConfig())
	if !fp.Empty() {
		t.Errorf("short text: want empty fingerprint, got %d hashes", fp.Len())
	}
}

func TestComputeSingleWindow(t *testing.T) {
	// "Hello World!" normalises to 10 chars -> 5 6-gram hashes, all within
	// one window of 3? No: 5 hashes > window 3, so regular winnowing. Use a
	// tighter text for the single-window path.
	fp := mustCompute(t, "hellowo", smallCfg) // 7 chars -> 2 hashes <= window
	if fp.Len() != 1 {
		t.Errorf("single-window text: want exactly 1 hash, got %d", fp.Len())
	}
}

func TestComputeDeterministic(t *testing.T) {
	text := "The quick brown fox jumps over the lazy dog."
	a := mustCompute(t, text, smallCfg)
	b := mustCompute(t, text, smallCfg)
	if !slices.Equal(a.Hashes(), b.Hashes()) {
		t.Error("same text produced different fingerprints")
	}
}

func TestNormalizationInvariance(t *testing.T) {
	a := mustCompute(t, "The Quick Brown Fox Jumps!", smallCfg)
	b := mustCompute(t, "the quick brown fox jumps", smallCfg)
	if !slices.Equal(a.Hashes(), b.Hashes()) {
		t.Error("case/punctuation variants produced different fingerprints")
	}
}

func TestIdenticalTextFullContainment(t *testing.T) {
	text := strings.Repeat("confidential interviewing guidelines for engineers. ", 5)
	a := mustCompute(t, text, DefaultConfig())
	b := mustCompute(t, text, DefaultConfig())
	if got := a.Containment(b); got != 1.0 {
		t.Errorf("self containment=%v, want 1.0", got)
	}
}

func TestDisjointTextsNoOverlap(t *testing.T) {
	a := mustCompute(t, strings.Repeat("alpha beta gamma delta epsilon zeta. ", 10), DefaultConfig())
	b := mustCompute(t, strings.Repeat("one two three four five six seven. ", 10), DefaultConfig())
	if got := a.IntersectCount(b); got != 0 {
		t.Errorf("disjoint texts share %d hashes, want 0", got)
	}
}

func TestSharedPassageGuarantee(t *testing.T) {
	// Any shared passage >= w+n-1 normalised chars must yield >= 1 common hash.
	cfg := DefaultConfig()
	shared := "thispassageissharedbetweenbothdocumentsentirelyandverbatim" // 59 chars > 44
	a := mustCompute(t, "prefix one two three "+shared+" suffix alpha", cfg)
	b := mustCompute(t, "completely different start "+shared+" another ending", cfg)
	if a.IntersectCount(b) == 0 {
		t.Error("shared passage above guarantee threshold produced no common hash")
	}
}

func TestSmallEditSmallChange(t *testing.T) {
	cfg := DefaultConfig()
	base := strings.Repeat("the interview candidate showed strong distributed systems knowledge. ", 8)
	edited := strings.Replace(base, "strong", "weak", 1)
	a := mustCompute(t, base, cfg)
	b := mustCompute(t, edited, cfg)
	if got := a.Containment(b); got < 0.7 {
		t.Errorf("one-word edit dropped containment to %v, want >= 0.7", got)
	}
}

func TestShuffleRobustness(t *testing.T) {
	// Reordering whole sentences keeps most hashes (S4 property: shuffling
	// document content does not strongly affect selected hashes).
	cfg := DefaultConfig()
	sentences := []string{
		"the first sentence talks about budget planning for next year.",
		"the second sentence describes the hiring pipeline in detail.",
		"the third sentence lists the confidential salary bands involved.",
		"the fourth sentence summarises outstanding compliance actions.",
	}
	fwd := mustCompute(t, strings.Join(sentences, " "), cfg)
	rev := mustCompute(t, strings.Join([]string{sentences[3], sentences[2], sentences[1], sentences[0]}, " "), cfg)
	if got := fwd.Containment(rev); got < 0.5 {
		t.Errorf("sentence shuffle dropped containment to %v, want >= 0.5", got)
	}
}

func TestPositionsAttributeSource(t *testing.T) {
	cfg := smallCfg
	text := "Alpha, Beta! Gamma Delta Epsilon."
	fp := mustCompute(t, text, cfg)
	positions, err := Positions(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) == 0 {
		t.Fatal("no positions recorded")
	}
	for i, p := range positions {
		if p.Start < 0 || p.End > len(text) || p.Start >= p.End {
			t.Fatalf("position out of range: %+v (len %d)", p, len(text))
		}
		if i > 0 && p.Start < positions[i-1].Start {
			t.Errorf("positions out of text order at %d: %+v after %+v", i, p, positions[i-1])
		}
		if !fp.Contains(p.Hash) {
			t.Errorf("position hash %#x not in hash set", p.Hash)
		}
	}
	if _, err := Positions(text, Config{}); err == nil {
		t.Error("Positions accepted an invalid config")
	}
}

// Positions and Compute are two entry points to one selection: over the
// dataset generators' prose (e-book paragraphs, a manual's versions, a
// revision history) and the degenerate inputs, the distinct hashes of
// Positions are exactly Compute's hash set.
func TestPositionsSelectsComputeHashes(t *testing.T) {
	texts := []string{"", "short", strings.Repeat("x", 14), strings.Repeat("ab", 40), "Crème brûlée — naïve café, twice: crème brûlée."}
	for _, book := range dataset.GenerateEbooks(dataset.EbookConfig{Seed: 7, Books: 2, MinBytes: 8 << 10, MaxBytes: 16 << 10, PopularPassages: 2, PopularEvery: 5}) {
		texts = append(texts, book.Paragraphs...)
		texts = append(texts, strings.Join(book.Paragraphs, "\n\n"))
	}
	for _, v := range dataset.GenerateManuals(3)[0].Versions {
		texts = append(texts, v.Paragraphs...)
	}
	for _, a := range dataset.GenerateRevisionCorpus(dataset.RevisionCorpusConfig{Seed: 5, Revisions: 3, Paragraphs: 6, VolatileVolatility: 0.5})[:2] {
		texts = append(texts, a.Latest()...)
	}
	for _, cfg := range []Config{DefaultConfig(), smallCfg} {
		for _, text := range texts {
			positions, err := Positions(text, cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]uint32, len(positions))
			for i, p := range positions {
				raw[i] = p.Hash
			}
			if got, want := FromHashes(raw), mustCompute(t, text, cfg); !slices.Equal(got.Hashes(), want.Hashes()) {
				t.Fatalf("cfg %+v, text %.40q: Positions selects %d distinct hashes, Compute %d", cfg, text, got.Len(), want.Len())
			}
		}
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	a := mustCompute(t, "the quick brown fox jumps over the lazy dog", smallCfg)
	b := mustCompute(t, "the quick brown fox jumps over the lazy dog", smallCfg)
	c := mustCompute(t, "a completely different text about databases", smallCfg)
	if a.Digest() != b.Digest() {
		t.Error("equal fingerprints have different digests")
	}
	if a.Digest() == c.Digest() {
		t.Error("different fingerprints collided on digest (unlikely)")
	}
}

func TestFromHashes(t *testing.T) {
	fp := FromHashes([]uint32{1, 2, 3, 2})
	if fp.Len() != 3 {
		t.Errorf("Len=%d, want 3", fp.Len())
	}
	for _, h := range []uint32{1, 2, 3} {
		if !fp.Contains(h) {
			t.Errorf("missing hash %d", h)
		}
	}
}

func TestHashesSorted(t *testing.T) {
	fp := mustCompute(t, strings.Repeat("winnowing algorithm local document fingerprinting. ", 6), DefaultConfig())
	hs := fp.Hashes()
	for i := 1; i < len(hs); i++ {
		if hs[i] < hs[i-1] {
			t.Fatal("Hashes() not sorted")
		}
	}
}

// Property: fingerprint density — winnowing selects roughly 2/(w+1) of the
// n-gram hashes; assert it never exceeds the hash count and is at least 1
// per full window span.
func TestQuickDensityBounds(t *testing.T) {
	letters := []rune("abcdefghijklmnopqrstuvwxyz ")
	f := func(seed int64, lnRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(lnRaw)%400 + 50
		b := make([]rune, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		fp, err := Compute(string(b), smallCfg)
		if err != nil {
			return false
		}
		norm := 0
		for _, r := range b {
			if r != ' ' {
				norm++
			}
		}
		nHashes := norm - smallCfg.NGram + 1
		if nHashes <= 0 {
			return fp.Empty()
		}
		// At least one selection per window stride, at most one per hash.
		return fp.Len() >= 1 && fp.Len() <= nHashes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: containment is monotone under appending — appending extra text
// to g never decreases f's containment in g.
func TestQuickContainmentMonotone(t *testing.T) {
	base := strings.Repeat("sensitive quarterly earnings report draft numbers. ", 6)
	fBase, err := Compute(base, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(extraSeed int64) bool {
		rng := rand.New(rand.NewSource(extraSeed))
		words := []string{"zebra", "quark", "maple", "onion", "violet", "umber"}
		var sb strings.Builder
		sb.WriteString(base)
		for i := 0; i < 20; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		g, err := Compute(sb.String(), DefaultConfig())
		if err != nil {
			return false
		}
		return fBase.Containment(g) >= fBase.Containment(fBase)-1e-9 ||
			fBase.Containment(g) >= 0.9 // appended text may perturb boundary hashes slightly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompute1KB(b *testing.B)  { benchCompute(b, 1<<10) }
func BenchmarkCompute64KB(b *testing.B) { benchCompute(b, 64<<10) }

func benchCompute(b *testing.B, size int) {
	rng := rand.New(rand.NewSource(7))
	letters := "abcdefghijklmnopqrstuvwxyz      "
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = letters[rng.Intn(len(letters))]
	}
	text := string(buf)
	cfg := DefaultConfig()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(text, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
