package disclosure

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// testParams uses small winnowing parameters so short test texts produce
// meaningful fingerprints.
func testParams() Params {
	return Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	}
}

func newTracker(t *testing.T, p Params) *Tracker {
	t.Helper()
	tr, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const (
	wikiText  = "The interviewing guidelines require at least two independent interviewers for every candidate evaluation session."
	otherText = "Quarterly marketing budgets should be submitted through the finance portal before the end of the month."
)

func TestNewTrackerValidation(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{name: "default ok", mutate: func(p *Params) {}, wantErr: false},
		{name: "bad fingerprint", mutate: func(p *Params) { p.Fingerprint.NGram = 0 }, wantErr: true},
		{name: "Tpar negative", mutate: func(p *Params) { p.Tpar = -0.1 }, wantErr: true},
		{name: "Tpar above one", mutate: func(p *Params) { p.Tpar = 1.1 }, wantErr: true},
		{name: "Tdoc above one", mutate: func(p *Params) { p.Tdoc = 2 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if _, err := NewTracker(p); (err != nil) != tt.wantErr {
				t.Errorf("NewTracker: err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestCopyPasteDetected(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("docs#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Fatal("verbatim copy not detected as disclosure")
	}
	if got := report.Sources[0].Seg; got != "wiki#p0" {
		t.Errorf("source=%q, want wiki#p0", got)
	}
	if got := report.Sources[0].Disclosure; got != 1.0 {
		t.Errorf("disclosure=%v, want 1.0", got)
	}
}

func TestUnrelatedTextNotDetected(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("docs#p0", otherText)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Errorf("unrelated text reported sources: %v", report.SourceSegs())
	}
}

func TestDisclosureAsymmetry(t *testing.T) {
	// The original is not reported as disclosing from its own copy.
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ObserveParagraph("docs#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	// Re-observe the original with one extra word appended to defeat the
	// decision cache.
	report, err := tr.ObserveParagraph("wiki#p0", wikiText+" addendum")
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Errorf("original reported as disclosing from its copy: %v", report.SourceSegs())
	}
}

func TestPartialCopyMeetsThreshold(t *testing.T) {
	tr := newTracker(t, testParams())
	source := wikiText + " " + strings.Repeat("Additional scheduling details are described in the onboarding handbook section four. ", 2)
	if _, err := tr.ObserveParagraph("wiki#p0", source); err != nil {
		t.Fatal(err)
	}
	// Copy most of the source.
	copyText := source[:len(source)*3/4]
	report, err := tr.ObserveParagraph("docs#p0", copyText)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Error("3/4 copy with Tpar=0.5 not detected")
	}
	// Copy a sliver: below the 0.5 requirement.
	report2, err := tr.ObserveParagraph("docs#p1", source[:len(source)/10])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range report2.Sources {
		if s.Seg == "wiki#p0" && s.Disclosure >= 0.5 {
			t.Errorf("sliver copy reported %v disclosure of wiki#p0", s.Disclosure)
		}
	}
}

func TestZeroThresholdDetectsSingleHash(t *testing.T) {
	p := testParams()
	tr := newTracker(t, p)
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	tr.Paragraphs().SetThreshold("wiki#p0", 0)
	// A short excerpt longer than the guarantee threshold shares >= 1 hash.
	excerpt := "two independent interviewers"
	report, err := tr.ObserveParagraph("docs#p0", excerpt)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Error("Tpar=0: single-hash leak not detected")
	}
}

func TestHighThresholdSuppressesPartial(t *testing.T) {
	p := testParams()
	tr := newTracker(t, p)
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	tr.Paragraphs().SetThreshold("wiki#p0", 0.95)
	report, err := tr.ObserveParagraph("docs#p0", wikiText[:len(wikiText)/2])
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Errorf("half copy reported despite Tpar=0.95: %+v", report.Sources)
	}
}

func TestOverlappingDocumentsFigure7(t *testing.T) {
	// B is a superset of A's paragraph; C copies the shared text. Pairwise
	// metrics would blame both A and B; authoritative fingerprints must
	// blame only A.
	shared := wikiText
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("A#p0", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ObserveParagraph("B#p0", shared+" Some extra commentary specific to document B follows here."); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("C#p0", shared)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Fatal("C should disclose from A")
	}
	for _, s := range report.Sources {
		if s.Seg == "B#p0" {
			t.Errorf("authoritative metric blamed non-authoritative source B: %+v", s)
		}
	}
}

func TestAblationWithoutAuthoritativeBlamesBoth(t *testing.T) {
	shared := wikiText
	p := testParams()
	p.DisableAuthoritative = true
	tr := newTracker(t, p)
	if _, err := tr.ObserveParagraph("A#p0", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ObserveParagraph("B#p0", shared+" tail."); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("C#p0", shared)
	if err != nil {
		t.Fatal(err)
	}
	var blamedB bool
	for _, s := range report.Sources {
		if s.Seg == "B#p0" {
			blamedB = true
		}
	}
	if !blamedB {
		t.Error("ablation: expected the false positive on B when authoritative fingerprints are disabled")
	}
}

func TestDecisionCache(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	first, err := tr.ObserveParagraph("docs#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first observation should not be a cache hit")
	}
	second, err := tr.ObserveParagraph("docs#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical re-observation should hit the cache")
	}
	if len(second.Sources) != len(first.Sources) {
		t.Error("cached report differs from original")
	}
	// Punctuation-only edits do not change the fingerprint either.
	third, err := tr.ObserveParagraph("docs#p0", strings.ToUpper(wikiText))
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("case-only edit should hit the cache (same normalised fingerprint)")
	}
}

func TestCacheDisabled(t *testing.T) {
	p := testParams()
	p.DisableCache = true
	tr := newTracker(t, p)
	if _, err := tr.ObserveParagraph("docs#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	r, err := tr.ObserveParagraph("docs#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("cache disabled but got a cache hit")
	}
	if n := memoLen(tr); n != 0 {
		t.Errorf("memoised decisions = %d, want 0", n)
	}
}

func TestQueryDoesNotMutate(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	before := tr.Paragraphs().Stats()
	sources, err := tr.QueryParagraph(wikiText, "ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) == 0 {
		t.Error("query missed the stored source")
	}
	after := tr.Paragraphs().Stats()
	if before != after {
		t.Errorf("QueryParagraph mutated the database: %+v -> %+v", before, after)
	}
}

func TestDocumentGranularityIndependent(t *testing.T) {
	tr := newTracker(t, testParams())
	doc := wikiText + "\n\n" + otherText
	if _, err := tr.ObserveDocument("wiki/guide", doc); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveDocument("docs/new", doc)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Error("document-level copy not detected")
	}
	if report.Granularity != segment.GranularityDocument {
		t.Errorf("granularity=%v", report.Granularity)
	}
	// The paragraph database must be untouched.
	if s := tr.Paragraphs().Stats(); s.Segments != 0 {
		t.Errorf("paragraph DB has %d segments after document observations", s.Segments)
	}
}

func TestEmptyTextNoSources(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("docs#p0", "")
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() || report.FingerprintLen != 0 {
		t.Errorf("empty text: %+v", report)
	}
}

func TestShortTextFalseNegative(t *testing.T) {
	// §6.1: paragraphs shorter than one fingerprinting window are a
	// systematic false-negative source. Verify the documented behaviour.
	tr := newTracker(t, testParams())
	short := "abc" // < NGram after normalisation
	if _, err := tr.ObserveParagraph("wiki#p0", short); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("docs#p0", short)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Error("sub-n-gram text should not produce disclosure reports")
	}
}

func TestForget(t *testing.T) {
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	tr.Forget("wiki#p0", segment.GranularityParagraph)
	report, err := tr.ObserveParagraph("docs#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Errorf("forgotten source still reported: %v", report.SourceSegs())
	}
}

func TestExpiryPromotesCopyToAuthoritative(t *testing.T) {
	// §4.4: periodic removal of old fingerprints. After the original's
	// postings expire, its surviving copy becomes the authoritative
	// source of the text, and new copies are attributed to it.
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("old#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ObserveParagraph("copy#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	// Expire everything before the copy's observation.
	db := tr.Paragraphs()
	db.ExpireBefore(db.Now())
	report, err := tr.ObserveParagraph("new#p0", wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Fatal("disclosure lost after expiry")
	}
	if got := report.Sources[0].Seg; got != "copy#p0" {
		t.Errorf("source=%q, want the promoted copy", got)
	}
}

func TestPairwise(t *testing.T) {
	tr := newTracker(t, testParams())
	d, err := tr.Pairwise(wikiText, wikiText)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.0 {
		t.Errorf("Pairwise(self)=%v, want 1.0", d)
	}
	d, err = tr.Pairwise(wikiText, otherText)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.0 {
		t.Errorf("Pairwise(unrelated)=%v, want 0.0", d)
	}
}

func TestRephrasedTextEscapesTracking(t *testing.T) {
	// §4.4 limitation: full rephrasing escapes imprecise tracking.
	tr := newTracker(t, testParams())
	if _, err := tr.ObserveParagraph("wiki#p0", wikiText); err != nil {
		t.Fatal(err)
	}
	rephrased := "Every candidate assessment meeting needs a pair of separate staff members conducting it, per policy."
	report, err := tr.ObserveParagraph("docs#p0", rephrased)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disclosing() {
		t.Errorf("fully rephrased text reported as disclosure: %v", report.SourceSegs())
	}
}

func TestUnicodeTextTracked(t *testing.T) {
	// Non-Latin scripts normalise to letters and fingerprint normally;
	// detection is script-independent.
	tr := newTracker(t, testParams())
	cjk := "机密文件：下一季度的收购目标包括三家存储初创公司和一家数据库供应商，请勿外传。"
	if _, err := tr.ObserveParagraph("wiki#cjk", cjk); err != nil {
		t.Fatal(err)
	}
	report, err := tr.ObserveParagraph("docs#cjk", cjk)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Error("CJK copy not detected")
	}
	mixed := "Résumé of the état-of-the-art: die Übernahme läuft — конфиденциально!"
	if _, err := tr.ObserveParagraph("wiki#mixed", mixed); err != nil {
		t.Fatal(err)
	}
	report, err = tr.ObserveParagraph("docs#mixed", mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() {
		t.Error("mixed-script copy not detected")
	}
}

// Property: a verbatim copy of any sufficiently long random text is always
// detected, whoever observed it first.
func TestQuickVerbatimCopyAlwaysDetected(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
		"golf", "hotel", "india", "juliett", "kilo", "lima", "mike"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		tr := newTracker(t, testParams())
		var sb strings.Builder
		for i := 0; i < 30; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		text := sb.String()
		if _, err := tr.ObserveParagraph("src#p0", text); err != nil {
			t.Fatal(err)
		}
		report, err := tr.ObserveParagraph("dst#p0", text)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Disclosing() {
			t.Fatalf("trial %d: verbatim copy of %q not detected", trial, text[:40])
		}
		if report.Sources[0].Disclosure != 1.0 {
			t.Fatalf("trial %d: disclosure=%v, want 1.0", trial, report.Sources[0].Disclosure)
		}
	}
}

func BenchmarkObserveParagraph(b *testing.B) {
	tr, err := NewTracker(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	letters := "abcdefghijklmnopqrstuvwxyz    "
	texts := make([]string, 200)
	for i := range texts {
		buf := make([]byte, 500)
		for j := range buf {
			buf[j] = letters[rng.Intn(len(letters))]
		}
		texts[i] = string(buf)
		if _, err := tr.ObserveParagraph(segment.ID("seed#"+texts[i][:8]), texts[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ObserveParagraph("probe#p0", texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForgetAfterEditReleasesAuthority: forgetting a segment takes the
// postings of every version it was observed as, not only its last. A
// later holder of an earlier version's text is then that text's source,
// as it is when the forgotten segment was never edited; ForgetRange, the
// source-side cleanup after a partition split, takes the same path.
func TestForgetAfterEditReleasesAuthority(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edited bool
		forget func(tr *Tracker)
	}{
		{"unedited", false, func(tr *Tracker) { tr.Forget("doc#a", segment.GranularityParagraph) }},
		{"edited", true, func(tr *Tracker) { tr.Forget("doc#a", segment.GranularityParagraph) }},
		{"edited, range", true, func(tr *Tracker) {
			k := segment.Key("doc#a")
			if n := tr.ForgetRange(k, k); n != 1 {
				t.Fatalf("ForgetRange removed %d segments, want 1", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTracker(t, testParams())
			if _, err := tr.ObserveParagraph("doc#a", wikiText); err != nil {
				t.Fatal(err)
			}
			if tc.edited {
				if _, err := tr.ObserveParagraph("doc#a", otherText); err != nil {
					t.Fatal(err)
				}
			}
			tc.forget(tr)
			if _, err := tr.ObserveParagraph("doc#b", wikiText); err != nil {
				t.Fatal(err)
			}
			sources, err := tr.QueryParagraph(wikiText, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(sources) != 1 || sources[0].Seg != "doc#b" || sources[0].Disclosure != 1.0 {
				t.Fatalf("sources = %+v, want doc#b at 1.0", sources)
			}
		})
	}
}
