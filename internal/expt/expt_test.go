package expt

import (
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
)

// testScale keeps experiment tests fast while preserving shapes.
func testScale() Scale {
	return Scale{
		Seed:              1,
		Revisions:         60,
		ArticleParagraphs: 12,
		Books:             2,
		BookMinBytes:      20 << 10,
		BookMaxBytes:      30 << 10,
	}
}

func testDisclosureParams() disclosure.Params {
	p := disclosure.DefaultParams()
	return p
}

func TestRunTable1(t *testing.T) {
	r := RunTable1(testScale())
	if len(r.Rows) != 6 {
		t.Fatalf("rows=%d, want 6 (wikipedia + 4 manuals + ebooks)", len(r.Rows))
	}
	out := r.Format()
	for _, want := range []string{"Wikipedia", "Manuals", "Ebooks", "IPhone Camera"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestRunFigure8(t *testing.T) {
	r := RunFigure8(testScale())
	if len(r.Points) != 8 {
		t.Fatalf("points=%d, want 8 articles", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	if last.Fraction != 1.0 {
		t.Errorf("CDF must end at 1.0, got %v", last.Fraction)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].RelChange < r.Points[i-1].RelChange {
			t.Error("CDF values not sorted")
		}
	}
	if !strings.Contains(r.Format(), "Figure 8") {
		t.Error("format header missing")
	}
}

func TestRunFigure9Shapes(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	stable, err := RunFigure9(testScale(), true, 6, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	volatile, err := RunFigure9(testScale(), false, 6, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(stable.Series) != 4 || len(volatile.Series) != 4 {
		t.Fatalf("series=%d/%d, want 4/4", len(stable.Series), len(volatile.Series))
	}
	// Paper shape: stable articles stay highly disclosing; volatile
	// articles decay. Compare aggregate final percentages.
	var stableFinal, volatileFinal float64
	for _, s := range stable.Series {
		stableFinal += s.FinalPct()
	}
	for _, s := range volatile.Series {
		volatileFinal += s.FinalPct()
	}
	stableFinal /= 4
	volatileFinal /= 4
	if stableFinal < 70 {
		t.Errorf("stable articles final disclosure %v%%, want >= 70%%", stableFinal)
	}
	if volatileFinal >= stableFinal {
		t.Errorf("volatile (%v%%) should decay below stable (%v%%)", volatileFinal, stableFinal)
	}
	if !strings.Contains(stable.Format(), "Figure 9a") || !strings.Contains(volatile.Format(), "Figure 9b") {
		t.Error("format headers wrong")
	}
}

func TestRunFigure9DocGranularitySimilarShape(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	stable, err := RunFigure9Doc(testScale(), true, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	volatile, err := RunFigure9Doc(testScale(), false, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stableFinal, volatileFinal float64
	for _, s := range stable.Series {
		stableFinal += s.FinalDdoc()
	}
	for _, s := range volatile.Series {
		volatileFinal += s.FinalDdoc()
	}
	stableFinal /= float64(len(stable.Series))
	volatileFinal /= float64(len(volatile.Series))
	// §6.1: document-granularity results are similar — stable articles
	// keep high Ddoc, volatile ones decay.
	if stableFinal < 0.7 {
		t.Errorf("stable final Ddoc=%v, want >= 0.7", stableFinal)
	}
	if volatileFinal >= stableFinal {
		t.Errorf("volatile (%v) should decay below stable (%v)", volatileFinal, stableFinal)
	}
	if !strings.Contains(stable.Format(), "document granularity") {
		t.Error("format header missing")
	}
}

func TestRunFigure10TracksGroundTruth(t *testing.T) {
	r, err := RunFigure10(testScale(), fingerprint.DefaultConfig(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chapters) != 4 {
		t.Fatalf("chapters=%d, want 4", len(r.Chapters))
	}
	byName := make(map[string][]Fig10Row)
	for _, c := range r.Chapters {
		byName[c.Chapter] = c.Rows
		if len(c.Rows) != 4 {
			t.Errorf("%s: rows=%d, want 4", c.Chapter, len(c.Rows))
		}
		// Base version always fully self-disclosing (modulo empty
		// fingerprints, which the generator's paragraphs avoid).
		if c.Rows[0].BrowserFlowPct < 95 {
			t.Errorf("%s: base BrowserFlow=%v%%, want ~100%%", c.Chapter, c.Rows[0].BrowserFlowPct)
		}
		// BrowserFlow must track ground truth within 20 points everywhere
		// (the paper: "Overall BrowserFlow's disclosure decisions match
		// the human expert").
		for _, row := range c.Rows {
			diff := row.BrowserFlowPct - row.GroundTruthPct
			if diff < 0 {
				diff = -diff
			}
			if diff > 20 {
				t.Errorf("%s %s: BF=%v%% GT=%v%% diff > 20", c.Chapter, row.Version, row.BrowserFlowPct, row.GroundTruthPct)
			}
		}
	}
	// Shape: iPhone chapters decay to near zero; What's MySQL stays high.
	camera := byName["IPhone Camera"]
	if camera[3].BrowserFlowPct > 25 {
		t.Errorf("iPhone Camera iOS7 BF=%v%%, want near 0", camera[3].BrowserFlowPct)
	}
	whats := byName["MySQL What's MySQL"]
	if whats[3].BrowserFlowPct < 70 {
		t.Errorf("What's MySQL 5.1 BF=%v%%, want high", whats[3].BrowserFlowPct)
	}
	if !strings.Contains(r.Format(), "Figure 10") {
		t.Error("format header missing")
	}
}

func TestRunFigure11ThresholdSweep(t *testing.T) {
	r, err := RunFigure11(testScale(), fingerprint.DefaultConfig(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 11 {
		t.Fatalf("points=%d, want 11", len(r.Points))
	}
	// Ratio decreases monotonically with Tpar.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Ratio > r.Points[i-1].Ratio+1e-9 {
			t.Errorf("ratio not monotone at Tpar=%v", r.Points[i].Tpar)
		}
	}
	// Paper shape: agreement within ~10% for Tpar in [0.2, 0.8].
	for _, tpar := range []float64{0.2, 0.5, 0.8} {
		ratio := r.RatioAt(tpar)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("ratio at Tpar=%v is %v, want within [0.75, 1.25]", tpar, ratio)
		}
	}
	if !strings.Contains(r.Format(), "Figure 11") {
		t.Error("format header missing")
	}
}

func TestRunFigure12Workflows(t *testing.T) {
	r, err := RunFigure12(testScale(), testDisclosureParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Hashes == 0 {
		t.Error("no hashes loaded")
	}
	for name, s := range map[string]struct {
		count uint64
	}{
		"W1": {count: r.W1.Count},
		"W2": {count: r.W2.Count},
		"W3": {count: r.W3.Count},
	} {
		if s.count == 0 {
			t.Errorf("%s recorded no samples", name)
		}
	}
	if len(r.W1.CDF()) == 0 || len(r.W2.CDF()) == 0 || len(r.W3.CDF()) == 0 {
		t.Error("missing CDFs")
	}
	if !strings.Contains(r.Format(), "Figure 12") {
		t.Error("format header missing")
	}
}

// TestFigure12FormatCDF pins the CDF rows Figure 12 prints under each
// workflow: one aligned "value fraction" row per CDF point.
func TestFigure12FormatCDF(t *testing.T) {
	h := obs.NewHistogram([]float64{0.001, 0.002})
	for _, d := range []time.Duration{time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	out := Fig12Result{W1: s, W2: s, W3: s}.Format()
	const rows = "         1ms  0.2500\n         2ms  1.0000\n"
	for _, w := range []string{"W1", "W2", "W3"} {
		if !strings.Contains(out, w+" CDF:\n"+rows) {
			t.Errorf("%s CDF rows missing from:\n%s", w, out)
		}
	}
}

func TestRunFigure13SubLinear(t *testing.T) {
	r, err := RunFigure13(testScale(), testDisclosureParams(), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points=%d, want 2", len(r.Points))
	}
	if r.Points[1].Hashes <= r.Points[0].Hashes {
		t.Error("hash count must grow across steps")
	}
	for _, p := range r.Points {
		if p.P95 <= 0 {
			t.Errorf("P95=%v, want > 0", p.P95)
		}
	}
	if !strings.Contains(r.Format(), "Figure 13") {
		t.Error("format header missing")
	}
}

func TestRunAblationCache(t *testing.T) {
	r, err := RunAblationCache(testScale(), testDisclosureParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate <= 0.2 {
		t.Errorf("hit rate=%v, want substantial (word-level typing rarely changes the fingerprint)", r.HitRate)
	}
	if r.WithCache.Count == 0 || r.WithoutCache.Count == 0 {
		t.Error("missing samples")
	}
	if !strings.Contains(r.Format(), "decision cache") {
		t.Error("format header missing")
	}
}

func TestRunAblationAuthoritative(t *testing.T) {
	r, err := RunAblationAuthoritative(testScale(), testDisclosureParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.FalsePositivesWith != 0 {
		t.Errorf("authoritative fingerprints produced %d false positives, want 0", r.FalsePositivesWith)
	}
	if r.FalsePositivesWithout == 0 {
		t.Error("pairwise containment produced no false positives — scenario broken")
	}
	if !strings.Contains(r.Format(), "authoritative") {
		t.Error("format header missing")
	}
}

func TestRunAblationWinnowParams(t *testing.T) {
	r, err := RunAblationWinnowParams(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points=%d, want 9", len(r.Points))
	}
	// Larger windows select fewer hashes (lower density).
	var small, large float64
	for _, p := range r.Points {
		if p.NGram == 15 && p.Window == 10 {
			small = p.HashesPerKB
		}
		if p.NGram == 15 && p.Window == 60 {
			large = p.HashesPerKB
		}
	}
	if large >= small {
		t.Errorf("window 60 density %v >= window 10 density %v", large, small)
	}
	if !strings.Contains(r.Format(), "winnowing") {
		t.Error("format header missing")
	}
}

func TestRunUsabilityComparison(t *testing.T) {
	r, err := RunUsabilityComparison(testScale(), testDisclosureParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	byName := map[string]UsabilityRow{}
	for _, row := range r.Rows {
		byName[row.System] = row
	}
	// No protection: leaky but fully functional.
	if byName["none"].SensitiveProtected || !byName["none"].PublicSearchable {
		t.Errorf("none=%+v", byName["none"])
	}
	// Encrypt-all: confidential but breaks search.
	if !byName["encrypt-all"].SensitiveProtected || byName["encrypt-all"].PublicSearchable {
		t.Errorf("encrypt-all=%+v", byName["encrypt-all"])
	}
	// BrowserFlow: confidential AND search keeps working — the paper's
	// selling point.
	if !byName["browserflow"].SensitiveProtected || !byName["browserflow"].PublicSearchable {
		t.Errorf("browserflow=%+v", byName["browserflow"])
	}
	if !strings.Contains(r.Format(), "Usability") {
		t.Error("format header missing")
	}
}

func TestRunOrgSim(t *testing.T) {
	cfg := DefaultOrgSimConfig()
	cfg.Events = 250
	r, err := RunOrgSim(cfg, testDisclosureParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Copies == 0 || r.TruthViolations == 0 {
		t.Fatalf("degenerate simulation: %+v", r)
	}
	// Precision must be high: warnings only fire on genuinely sensitive
	// lineage.
	if p := r.Precision(); p < 0.9 {
		t.Errorf("precision=%v, want >= 0.9", p)
	}
	// Detectable recall (excluding rephrased copies) must be high.
	if dr := r.DetectableRecall(); dr < 0.85 {
		t.Errorf("detectable recall=%v, want >= 0.85", dr)
	}
	// Total recall is strictly lower when rephrased violations exist —
	// the §4.4 limitation, quantified.
	if r.RephrasedViolations > 0 && r.Recall() >= r.DetectableRecall() {
		t.Errorf("recall=%v should be below detectable recall=%v", r.Recall(), r.DetectableRecall())
	}
	out := r.Format()
	if !strings.Contains(out, "precision") {
		t.Errorf("format: %q", out)
	}
}

func TestRunOrgSimSweep(t *testing.T) {
	cfg := DefaultOrgSimConfig()
	cfg.Events = 150
	sweep, err := RunOrgSimSweep(cfg, testDisclosureParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Runs) != 3 {
		t.Fatalf("runs=%d", len(sweep.Runs))
	}
	if p := sweep.MinPrecision(); p < 0.9 {
		t.Errorf("min precision=%v across seeds, want >= 0.9", p)
	}
	if dr := sweep.MinDetectableRecall(); dr < 0.8 {
		t.Errorf("min detectable recall=%v across seeds, want >= 0.8", dr)
	}
	if !strings.Contains(sweep.Format(), "sweep") {
		t.Error("format header missing")
	}
}

func TestRunBaselineComparison(t *testing.T) {
	r, err := RunBaselineComparison(testScale(), testDisclosureParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 3 {
		t.Fatalf("scenarios=%d, want 3", len(r.Scenarios))
	}
	byName := map[string]BaselineScenario{}
	for _, s := range r.Scenarios {
		byName[s.Name] = s
		if !s.BrowserFlow {
			t.Errorf("%s: BrowserFlow missed the disclosure", s.Name)
		}
	}
	if !byName["S1 plaintext form post"].NetworkDLP {
		t.Error("S1: network DLP should detect plaintext form posts")
	}
	if !byName["S2 JSON AJAX mutation"].NetworkDLP {
		t.Error("S2: network DLP with a JSON decoder should detect")
	}
	if byName["S3 obfuscated envelope"].NetworkDLP {
		t.Error("S3: network DLP should be blind to the obfuscated envelope")
	}
	out := r.Format()
	if !strings.Contains(out, "missed") || !strings.Contains(out, "detected") {
		t.Errorf("format: %q", out)
	}
}

func TestPaperScaleIsLarger(t *testing.T) {
	d, p := DefaultScale(), PaperScale()
	if p.Revisions <= d.Revisions || p.Books <= d.Books {
		t.Error("PaperScale must exceed DefaultScale")
	}
}
