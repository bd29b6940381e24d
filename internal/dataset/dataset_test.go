package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
)

func TestTextGenDeterministic(t *testing.T) {
	a := NewTextGen(7, 100)
	b := NewTextGen(7, 100)
	for i := 0; i < 20; i++ {
		if a.Word() != b.Word() {
			t.Fatal("same seed produced different words")
		}
	}
	if NewTextGen(7, 100).Sentence(5, 10) != NewTextGen(7, 100).Sentence(5, 10) {
		t.Error("sentences not deterministic")
	}
}

func TestTextGenShapes(t *testing.T) {
	g := NewTextGen(3, 200)
	s := g.Sentence(5, 5)
	if !strings.HasSuffix(s, ".") {
		t.Errorf("sentence %q missing full stop", s)
	}
	if len(strings.Fields(s)) != 5 {
		t.Errorf("sentence %q has %d words, want 5", s, len(strings.Fields(s)))
	}
	p := g.Paragraph(3, 3)
	if got := strings.Count(p, "."); got != 3 {
		t.Errorf("paragraph has %d sentences, want 3", got)
	}
}

func TestLightEditPreservesFingerprint(t *testing.T) {
	g := NewTextGen(11, 300)
	p := g.Paragraph(4, 6)
	edited := g.LightEdit(p, 0.08)
	cfg := fingerprint.DefaultConfig()
	fa, err := fingerprint.Compute(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fingerprint.Compute(edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := fa.Containment(fb); c < 0.5 {
		t.Errorf("light edit broke fingerprint: containment=%v", c)
	}
}

func TestRephraseBreaksFingerprint(t *testing.T) {
	g := NewTextGen(13, 300)
	p := g.Paragraph(4, 6)
	rephrased := g.Rephrase(p)
	cfg := fingerprint.DefaultConfig()
	fa, err := fingerprint.Compute(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fingerprint.Compute(rephrased, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := fa.Containment(fb); c > 0.2 {
		t.Errorf("rephrase kept containment %v, want near 0", c)
	}
}

func TestSentenceOps(t *testing.T) {
	g := NewTextGen(17, 300)
	p := g.Paragraph(4, 4)
	if got := strings.Count(g.DropSentence(p), "."); got != 3 {
		t.Errorf("DropSentence: %d sentences, want 3", got)
	}
	if got := strings.Count(g.AppendSentence(p), "."); got != 5 {
		t.Errorf("AppendSentence: %d sentences, want 5", got)
	}
	single := "Only one sentence here."
	if g.DropSentence(single) != single {
		t.Error("DropSentence removed the only sentence")
	}
}

// TestAppendFieldsMatchesStringsFields: the ASCII fast path splits as
// strings.Fields does, and so does the rune path, on Unicode spaces
// (U+0085, U+00A0, U+2028, U+3000), non-space runes and invalid UTF-8.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	for _, s := range []string{
		"", " ", "one", "  one\ttwo \n three ", "a\vb\fc\rd\x1ce\x00f\x7fg",
		"nbsp\u00a0here", "nel\u0085x", "line\u2028sep", "ideo\u3000graphic", "\u3000\u00a0",
		"caf\u00e9 na\u00efve \u65e5\u672c", "bad\xffutf8 \xc3", "\xe2\x80 \xe2\x80\xa8x", "tail\u2029",
	} {
		got, want := appendFields(nil, s), strings.Fields(s)
		if !slices.Equal(got, want) {
			t.Errorf("appendFields(%q) = %q, strings.Fields = %q", s, got, want)
		}
	}
}

func TestGenerateRevisionCorpus(t *testing.T) {
	cfg := DefaultRevisionCorpusConfig()
	cfg.Revisions = 50
	cfg.Paragraphs = 10
	articles := GenerateRevisionCorpus(cfg)
	if len(articles) != 8 {
		t.Fatalf("articles=%d, want 8", len(articles))
	}
	for _, a := range articles {
		if len(a.Revisions) != 50 {
			t.Errorf("%s: revisions=%d", a.Title, len(a.Revisions))
		}
		if len(a.Base()) != 10 {
			t.Errorf("%s: base paragraphs=%d", a.Title, len(a.Base()))
		}
	}
	// Determinism.
	again := GenerateRevisionCorpus(cfg)
	if articles[0].Latest()[0] != again[0].Latest()[0] {
		t.Error("corpus not deterministic")
	}
}

func TestVolatileArticlesChangeMore(t *testing.T) {
	cfg := DefaultRevisionCorpusConfig()
	cfg.Revisions = 150
	cfg.Paragraphs = 20
	articles := GenerateRevisionCorpus(cfg)
	var stableChange, volatileChange float64
	for _, a := range articles {
		if a.Volatility <= cfg.StableVolatility {
			stableChange += RelativeLengthChange(a)
		} else {
			volatileChange += RelativeLengthChange(a)
		}
	}
	// Volatile articles must churn more in aggregate (Figure 8 shape).
	if volatileChange <= stableChange {
		t.Errorf("volatile change %v <= stable change %v", volatileChange, stableChange)
	}
}

func TestExtraArticles(t *testing.T) {
	cfg := DefaultRevisionCorpusConfig()
	cfg.Revisions = 5
	cfg.Paragraphs = 3
	cfg.ExtraArticles = 4
	articles := GenerateRevisionCorpus(cfg)
	if len(articles) != 12 {
		t.Errorf("articles=%d, want 12", len(articles))
	}
}

func TestGenerateManuals(t *testing.T) {
	chapters := GenerateManuals(1)
	if len(chapters) != 4 {
		t.Fatalf("chapters=%d, want 4", len(chapters))
	}
	for _, c := range chapters {
		if len(c.Versions) != 4 {
			t.Errorf("%s: versions=%d, want 4", c.Name, len(c.Versions))
		}
		base := c.Base()
		if base.GroundTruthDisclosed() != len(base.Paragraphs) {
			t.Errorf("%s: base must fully disclose itself", c.Name)
		}
		for _, v := range c.Versions {
			if len(v.BaseEdits) != len(base.Paragraphs) {
				t.Errorf("%s %s: BaseEdits=%d, want %d", c.Name, v.Label, len(v.BaseEdits), len(base.Paragraphs))
			}
		}
	}
	if _, ok := ChapterByName(chapters, "MySQL What's MySQL"); !ok {
		t.Error("ChapterByName failed")
	}
	if _, ok := ChapterByName(chapters, "nonexistent"); ok {
		t.Error("ChapterByName found a ghost")
	}
}

func TestManualChurnShapes(t *testing.T) {
	chapters := GenerateManuals(1)
	camera, _ := ChapterByName(chapters, "IPhone Camera")
	whats, _ := ChapterByName(chapters, "MySQL What's MySQL")

	// iPhone Camera: last version discloses almost nothing of the base.
	last := camera.Versions[len(camera.Versions)-1]
	frac := float64(last.GroundTruthDisclosed()) / float64(len(camera.Base().Paragraphs))
	if frac > 0.3 {
		t.Errorf("iPhone Camera final disclosure=%v, want near 0", frac)
	}
	// What's MySQL: stays essentially fully disclosed.
	lastW := whats.Versions[len(whats.Versions)-1]
	fracW := float64(lastW.GroundTruthDisclosed()) / float64(len(whats.Base().Paragraphs))
	if fracW < 0.7 {
		t.Errorf("What's MySQL final disclosure=%v, want near 1", fracW)
	}
}

func TestEditKindDiscloses(t *testing.T) {
	if !EditKept.Discloses() || !EditLight.Discloses() || !EditRephrased.Discloses() {
		t.Error("kept/light/rephrased must disclose")
	}
	if EditRemoved.Discloses() {
		t.Error("removed must not disclose")
	}
}

func TestGenerateEbooks(t *testing.T) {
	cfg := EbookConfig{Seed: 5, Books: 3, MinBytes: 10 << 10, MaxBytes: 20 << 10}
	books := GenerateEbooks(cfg)
	if len(books) != 3 {
		t.Fatalf("books=%d", len(books))
	}
	for _, b := range books {
		if b.SizeBytes() < cfg.MinBytes {
			t.Errorf("%s: size=%d < min %d", b.Title, b.SizeBytes(), cfg.MinBytes)
		}
	}
	total := 0
	for _, b := range books {
		total += b.SizeBytes()
	}
	if total < 30<<10 {
		t.Error("total size too small")
	}
	page := books[0].Page(0)
	if len(page) < 1024 {
		t.Errorf("page=%d bytes, want ~2KB", len(page))
	}
	// Determinism.
	again := GenerateEbooks(cfg)
	if books[0].Paragraphs[0] != again[0].Paragraphs[0] {
		t.Error("ebooks not deterministic")
	}
}

func TestPopularPassagesShared(t *testing.T) {
	cfg := EbookConfig{
		Seed: 5, Books: 3, MinBytes: 30 << 10, MaxBytes: 40 << 10,
		PopularPassages: 3, PopularEvery: 10,
	}
	books := GenerateEbooks(cfg)
	// Find a paragraph in book 0 containing an injected passage: a
	// passage is a sentence that also appears verbatim in another book.
	shared := 0
	for _, p0 := range books[0].Paragraphs {
		for _, sentence := range splitSentences(nil, p0) {
			if len(sentence) < 60 {
				continue
			}
			for _, p1 := range books[1].Paragraphs {
				if strings.Contains(p1, sentence) {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no popular passages shared across books")
	}
	// Without injection, no cross-book sharing of long sentences.
	cfg.PopularPassages = 0
	plain := GenerateEbooks(cfg)
	sharedPlain := 0
	for _, p0 := range plain[0].Paragraphs[:20] {
		for _, sentence := range splitSentences(nil, p0) {
			if len(sentence) < 60 {
				continue
			}
			for _, p1 := range plain[1].Paragraphs {
				if strings.Contains(p1, sentence) {
					sharedPlain++
				}
			}
		}
	}
	if sharedPlain != 0 {
		t.Errorf("unexpected sharing without injection: %d", sharedPlain)
	}
}

func TestPopularPassagesZipfProfile(t *testing.T) {
	cfg := EbookConfig{
		Seed: 5, Books: 1, MinBytes: 60 << 10, MaxBytes: 60 << 10,
		PopularPassages: 2, PopularEvery: 10,
	}
	books := GenerateEbooks(cfg)
	pgen := NewTextGen(cfg.Seed+424242, 1500)
	first := pgen.Sentence(12, 18)
	second := pgen.Sentence(12, 18)
	count := func(needle string) int {
		n := 0
		for _, p := range books[0].Paragraphs {
			if strings.Contains(p, needle) {
				n++
			}
		}
		return n
	}
	c1, c2 := count(first), count(second)
	if c1 == 0 || c2 == 0 {
		t.Fatalf("passages not injected: %d %d", c1, c2)
	}
	if c1 <= c2 {
		t.Errorf("Zipf profile violated: passage0=%d <= passage1=%d", c1, c2)
	}
}

func TestStatsAndTable(t *testing.T) {
	cfg := DefaultRevisionCorpusConfig()
	cfg.Revisions = 5
	cfg.Paragraphs = 4
	articles := GenerateRevisionCorpus(cfg)
	chapters := GenerateManuals(1)
	books := GenerateEbooks(EbookConfig{Seed: 5, Books: 2, MinBytes: 5 << 10, MaxBytes: 6 << 10})

	rows := []Stats{RevisionCorpusStats(articles)}
	rows = append(rows, ManualStats(chapters)...)
	rows = append(rows, EbookStats(books))

	if rows[0].Documents != 8 || rows[0].Versions != 5 {
		t.Errorf("wikipedia row=%+v", rows[0])
	}
	if len(rows) != 6 {
		t.Fatalf("rows=%d, want 6", len(rows))
	}
	table := FormatTable(rows)
	for _, want := range []string{"Wikipedia", "IPhone Camera", "MySQL New Features", "Ebooks"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestStatsEmptyInputs(t *testing.T) {
	if s := RevisionCorpusStats(nil); s.Documents != 0 {
		t.Error("empty corpus stats")
	}
	if s := EbookStats(nil); s.Documents != 0 {
		t.Error("empty ebook stats")
	}
}

func TestGenerateEbooksFuncMatchesBatch(t *testing.T) {
	cfg := EbookConfig{Seed: 7, Books: 4, MinBytes: 2 << 10, MaxBytes: 6 << 10, PopularPassages: 3}
	want := GenerateEbooks(cfg)
	var got []Ebook
	if err := GenerateEbooksFunc(cfg, func(b Ebook) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d books, batch produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Title != want[i].Title {
			t.Fatalf("book %d title %q != %q", i, got[i].Title, want[i].Title)
		}
		if len(got[i].Paragraphs) != len(want[i].Paragraphs) {
			t.Fatalf("book %d has %d paragraphs, want %d", i, len(got[i].Paragraphs), len(want[i].Paragraphs))
		}
		for j := range want[i].Paragraphs {
			if got[i].Paragraphs[j] != want[i].Paragraphs[j] {
				t.Fatalf("book %d paragraph %d diverged", i, j)
			}
		}
	}
}

// TestGenerateEbooksFuncStopsOnError runs more books than builders: after
// fn's error, fn is not called again and no builder outlives the call.
func TestGenerateEbooksFuncStopsOnError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := EbookConfig{Seed: 7, Books: 10, MinBytes: 2 << 10, MaxBytes: 4 << 10}
	before := runtime.NumGoroutine()
	calls := 0
	sentinel := errors.New("stop")
	err := GenerateEbooksFunc(cfg, func(Ebook) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("generator kept going after error: %d calls", calls)
	}
	waitGoroutines(t, before)
}

// TestGenerateEbooksFuncPanicStopsBuilders: a panic in fn reaches the
// caller, and the builders are stopped, not left blocked handing over.
func TestGenerateEbooksFuncPanicStopsBuilders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := EbookConfig{Seed: 7, Books: 10, MinBytes: 2 << 10, MaxBytes: 4 << 10}
	before := runtime.NumGoroutine()
	calls := 0
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the panic of fn", r)
			}
		}()
		_ = GenerateEbooksFunc(cfg, func(Ebook) error {
			if calls++; calls == 3 {
				panic("boom")
			}
			return nil
		})
	}()
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
	waitGoroutines(t, before)
}

// TestGenerateEbooksFuncCallsFnInOrderOnCaller: fn runs one call at a
// time, on the caller's goroutine, in book order. inFn and calls are
// plain variables, so a call made from a builder, or overlapping another,
// is a data race that -race reports.
func TestGenerateEbooksFuncCallsFnInOrderOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := EbookConfig{Seed: 7, Books: 9, MinBytes: 2 << 10, MaxBytes: 32 << 10}
	inFn, calls := false, 0
	if err := GenerateEbooksFunc(cfg, func(book Ebook) error {
		if inFn {
			t.Error("fn entered while another call was running")
		}
		inFn = true
		defer func() { inFn = false }()
		if want := fmt.Sprintf("Synthetic Classic %03d", calls); book.Title != want {
			t.Errorf("call %d got %q, want %q", calls, book.Title, want)
		}
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Books {
		t.Errorf("fn called %d times, want %d", calls, cfg.Books)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want: a builder that returned is gone a moment after it said so.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the call, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTextGenAllocs pins each TextGen method at one allocation per
// returned string, the string itself (Word returns a vocabulary word and
// allocates none), and checks that no result aliases the scratch buffer
// the methods build in: a string returned earlier reads the same after
// every later call. It also pins NewTextGen and GenerateEbooksFunc at a
// few allocations in all.
func TestTextGenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under -race")
	}
	g := NewTextGen(19, 300)
	p := g.Paragraph(4, 6)
	kept := []string{p, g.Sentence(8, 16)}
	want := []string{strings.Clone(kept[0]), strings.Clone(kept[1])}
	methods := []struct {
		name   string
		call   func() string
		allocs float64
	}{
		{"Word", g.Word, 0},
		{"Sentence", func() string { return g.Sentence(8, 16) }, 1},
		{"Paragraph", func() string { return g.Paragraph(4, 9) }, 1},
		{"Rephrase", func() string { return g.Rephrase(p) }, 1},
		{"LightEdit", func() string { return g.LightEdit(p, 0.1) }, 1},
		{"DropSentence", func() string { return g.DropSentence(p) }, 1},
		{"AppendSentence", func() string { return g.AppendSentence(p) }, 1},
	}
	for _, m := range methods {
		kept = append(kept, m.call())
		want = append(want, strings.Clone(kept[len(kept)-1]))
		if got := testing.AllocsPerRun(200, func() { m.call() }); got > m.allocs {
			t.Errorf("%s: %v allocations per call, want <= %v", m.name, got, m.allocs)
		}
	}
	for i := range kept {
		if kept[i] != want[i] {
			t.Errorf("result %d changed after later calls: %q, was %q", i, kept[i], want[i])
		}
	}
	// A vocabulary and an e-book are a few allocations, not one per word
	// or per paragraph.
	if got := testing.AllocsPerRun(20, func() { NewTextGen(19, 3000) }); got > 20 {
		t.Errorf("NewTextGen: %v allocations for 3000 words, want <= 20", got)
	}
	cfg := EbookConfig{Seed: 1, Books: 2, MinBytes: 256 << 10, MaxBytes: 256 << 10}
	if got := testing.AllocsPerRun(5, func() { _ = GenerateEbooksFunc(cfg, func(Ebook) error { return nil }) }); got > 100 {
		t.Errorf("GenerateEbooksFunc: %v allocations for 2 x 256 KB, want <= 100", got)
	}
}

// TestIntnMatchesRandIntn checks that intn draws what rand.Rand.Intn
// draws, and consumes the same source values: after each run the next
// Int63 of the two sources is equal. 2^30+1 rejects about half its draws.
func TestIntnMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 31, 64, 1000, 3000, 20000, 1<<20 + 1, 1 << 30, 1<<30 + 1, 1<<31 - 1} {
		d := newIntn(n)
		for seed := int64(1); seed <= 3; seed++ {
			want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 200000; i++ {
				if w, g := want.Intn(n), d.draw(got); w != g {
					t.Fatalf("n=%d seed=%d draw %d: intn gives %d, Intn %d", n, seed, i, g, w)
				}
			}
			if want.Int63() != got.Int63() {
				t.Fatalf("n=%d seed=%d: intn consumed other source values than Intn", n, seed)
			}
		}
	}
}

// TestWordSlots checks that slotBytes fits the longest word the syllable
// inventory spells, that each index fits its bits of a word's key, and
// that each slot reads back its word in the generator's text, and that the
// words are distinct, so the key dedupes exactly as the spelling would.
func TestWordSlots(t *testing.T) {
	longest := func(ss []string) int {
		n := 0
		for _, s := range ss {
			n = max(n, len(s))
		}
		return n
	}
	if n := 4*(longest(onsets)+longest(nuclei)) + longest(stopper); n != slotBytes {
		t.Fatalf("the longest word is %d bytes, slotBytes %d", n, slotBytes)
	}
	if len(onsets) > 1<<onsetBits || len(nuclei) > 1<<nucleusBits || len(stopper) > 1<<stopBits {
		t.Fatalf("%d onsets, %d nuclei, %d stops overflow their key bits", len(onsets), len(nuclei), len(stopper))
	}
	g := NewTextGen(17, 20000)
	seen := make(map[string]bool, len(g.slots))
	for i, s := range g.slots {
		w := g.text[s.off : s.off+uint32(s.n)]
		if string(s.b[:s.n]) != w {
			t.Fatalf("slot %d reads %q, text %q", i, s.b[:s.n], w)
		}
		if seen[w] {
			t.Fatalf("word %q twice", w)
		}
		seen[w] = true
	}
	if len(seen) != 20000 {
		t.Fatalf("%d words, want 20000", len(seen))
	}
}

// BenchmarkGenerateEbooks generates the benchmark's corpus shape: 1 MB
// books, no popular passages.
func BenchmarkGenerateEbooks(b *testing.B) {
	cfg := EbookConfig{Seed: 1, Books: 4, MinBytes: 1 << 20, MaxBytes: 1 << 20}
	b.SetBytes(int64(cfg.Books * cfg.MinBytes)) // each book overshoots by under a paragraph
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GenerateEbooksFunc(cfg, func(Ebook) error { return nil })
	}
}

// BenchmarkTextGenParagraph builds one e-book paragraph at a time on one
// goroutine from a 3 000-word generator: the word path alone, without the
// e-book builders' parallelism.
func BenchmarkTextGenParagraph(b *testing.B) {
	g := NewTextGen(1, 3000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Paragraph(4, 9)
	}
}
