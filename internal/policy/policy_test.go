package policy

import (
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/tdm"
)

const guideline = "Interview guidelines: always have two interviewers present and record the candidate evaluation in the internal tool immediately."

// newEngine builds the paper's three-service world with small winnowing
// parameters suitable for short test texts.
func newEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	params := disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	}
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range []struct {
		name   string
		lp, lc tdm.TagSet
	}{
		{name: "itool", lp: tdm.NewTagSet("ti"), lc: tdm.NewTagSet("ti")},
		{name: "wiki", lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
		{name: "docs", lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := NewEngine(tracker, registry, mode)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func TestNewEngineValidation(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := NewEngine(nil, e.Registry(), ModeAdvisory); err == nil {
		t.Error("nil tracker accepted")
	}
	if _, err := NewEngine(e.Tracker(), nil, ModeAdvisory); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := NewEngine(e.Tracker(), e.Registry(), Mode(0)); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := NewEngine(e.Tracker(), tdm.NewRegistry(nil, nil), ModeAdvisory); err == nil {
		t.Error("registry on another segment table accepted")
	}
}

func TestObserveEditAssignsLabelAndAllows(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	v, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("editing inside own service: decision=%v, want allow", v.Decision)
	}
	label := e.Registry().Label("wiki/doc#p0")
	if label == nil || !label.Explicit().Has("tw") {
		t.Errorf("label=%v, want explicit tw", label)
	}
}

// The paper's end-to-end flow: text created in the wiki is pasted into a
// Google Docs paragraph; while the paragraph discloses wiki text it gets a
// warning (red background), because its implicit tw is not in docs' Lp={}.
func TestPasteIntoUntrustedServiceWarns(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
		t.Fatal(err)
	}
	v, err := e.ObserveEdit("docs/new#p0", "docs", guideline)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionWarn {
		t.Fatalf("decision=%v, want warn", v.Decision)
	}
	if !v.Violation() || v.Violating[0] != "tw" {
		t.Errorf("violating=%v, want [tw]", v.Violating)
	}
	if len(v.Sources) == 0 || v.Sources[0].Seg != "wiki/doc#p0" {
		t.Errorf("sources=%v", v.Sources)
	}
}

func TestModeDecisions(t *testing.T) {
	tests := []struct {
		mode Mode
		want Decision
	}{
		{mode: ModeAdvisory, want: DecisionWarn},
		{mode: ModeEnforcing, want: DecisionBlock},
		{mode: ModeEncrypting, want: DecisionEncrypt},
	}
	for _, tt := range tests {
		t.Run(tt.mode.String(), func(t *testing.T) {
			e := newEngine(t, tt.mode)
			if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
				t.Fatal(err)
			}
			v, err := e.ObserveEdit("docs/new#p0", "docs", guideline)
			if err != nil {
				t.Fatal(err)
			}
			if v.Decision != tt.want {
				t.Errorf("decision=%v, want %v", v.Decision, tt.want)
			}
		})
	}
}

func TestEditedAwayTextClearsWarning(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ObserveEdit("docs/new#p0", "docs", guideline); err != nil {
		t.Fatal(err)
	}
	// The user rewrites the paragraph completely.
	rewritten := "A fully original shopping list: apples, pears, oranges, grapes, pineapples and a very large watermelon."
	v, err := e.ObserveEdit("docs/new#p0", "docs", rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("rewritten paragraph still flagged: %+v", v)
	}
	if label := e.Registry().Label("docs/new#p0"); label.Implicit().Len() != 0 {
		t.Errorf("implicit tags survived rewrite: %v", label)
	}
}

func TestCheckUploadTrackedSegment(t *testing.T) {
	e := newEngine(t, ModeEnforcing)
	if _, err := e.ObserveEdit("itool/eval#p0", "itool", guideline); err != nil {
		t.Fatal(err)
	}
	v, err := e.CheckUpload("itool/eval#p0", "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock {
		t.Errorf("decision=%v, want block", v.Decision)
	}
	v, err = e.CheckUpload("itool/eval#p0", "itool")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("upload to own service: decision=%v, want allow", v.Decision)
	}
}

func TestCheckUploadUnknownService(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := e.CheckUpload("x#p0", "ghost"); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestCheckTextFormPath(t *testing.T) {
	e := newEngine(t, ModeEnforcing)
	if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
		t.Fatal(err)
	}
	// Submitting the wiki text through a docs form is blocked.
	v, err := e.CheckText(guideline, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock {
		t.Errorf("decision=%v, want block", v.Decision)
	}
	if len(v.Sources) == 0 {
		t.Error("no sources attributed")
	}
	// Unrelated text passes.
	v, err = e.CheckText("Totally unrelated public announcement about the weather today.", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("decision=%v, want allow", v.Decision)
	}
	// CheckText must not have recorded anything.
	if got := e.Tracker().Paragraphs().Stats().Segments; got != 1 {
		t.Errorf("CheckText mutated tracker: %d segments", got)
	}
}

func TestCheckTextUnknownService(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := e.CheckText("hello", "ghost"); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestSuppressionUnblocksUpload(t *testing.T) {
	e := newEngine(t, ModeEnforcing)
	if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ObserveEdit("docs/new#p0", "docs", guideline); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.CheckUpload("docs/new#p0", "docs"); v.Decision != DecisionBlock {
		t.Fatalf("precondition: upload should be blocked, got %v", v.Decision)
	}
	if err := e.Registry().SuppressTag("alice", "docs/new#p0", "tw", "approved by data owner"); err != nil {
		t.Fatal(err)
	}
	v, err := e.CheckUpload("docs/new#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("decision after suppression=%v, want allow", v.Decision)
	}
}

// §3.1: "tag suppression is done on a case-by-case basis" — declassifying
// one destination copy does not declassify other copies of the same
// source.
func TestSuppressionIsPerDestination(t *testing.T) {
	e := newEngine(t, ModeEnforcing)
	if _, err := e.ObserveEdit("wiki/doc#p0", "wiki", guideline); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ObserveEdit("docs/a#p0", "docs", guideline); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().SuppressTag("alice", "docs/a#p0", "tw", "first copy approved"); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.CheckUpload("docs/a#p0", "docs"); v.Decision != DecisionAllow {
		t.Fatalf("suppressed copy still blocked: %v", v.Decision)
	}
	// A second copy of the same source is a fresh segment and is blocked
	// until its own suppression.
	if _, err := e.ObserveEdit("docs/b#p0", "docs", guideline); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.CheckUpload("docs/b#p0", "docs"); v.Decision != DecisionBlock {
		t.Errorf("second copy inherited the first copy's suppression: %v", v.Decision)
	}
}

func TestOverrideAudited(t *testing.T) {
	e := newEngine(t, ModeEnforcing)
	v := e.Override("alice", "docs/new#p0", "docs", "management sign-off")
	if v.Decision != DecisionAllow {
		t.Errorf("override decision=%v, want allow", v.Decision)
	}
	entries := e.Registry().Audit().Filter(func(e audit.Entry) bool { return e.User == "alice" })
	if len(entries) != 1 || entries[0].Action != audit.ActionOverride {
		t.Errorf("audit=%+v", entries)
	}
}

func TestVerdictCacheHitPropagated(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	if _, err := e.ObserveEdit("docs/new#p0", "docs", guideline); err != nil {
		t.Fatal(err)
	}
	v, err := e.ObserveEdit("docs/new#p0", "docs", guideline)
	if err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Error("identical re-edit should be a cache hit")
	}
}

func TestDocumentGranularityEdit(t *testing.T) {
	e := newEngine(t, ModeAdvisory)
	doc := guideline + "\n\n" + strings.Repeat("Second paragraph with more operational details for interviews. ", 3)
	if _, err := e.ObserveDocumentEdit("wiki/doc", "wiki", doc); err != nil {
		t.Fatal(err)
	}
	v, err := e.ObserveDocumentEdit("docs/copy", "docs", doc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionWarn {
		t.Errorf("document-level copy: decision=%v, want warn", v.Decision)
	}
	if v.Seg != "docs/copy" {
		t.Errorf("seg=%v", v.Seg)
	}
}

func TestStringers(t *testing.T) {
	if DecisionAllow.String() != "allow" || DecisionWarn.String() != "warn" ||
		DecisionBlock.String() != "block" || DecisionEncrypt.String() != "encrypt" {
		t.Error("Decision.String wrong")
	}
	if Decision(42).String() != "decision(42)" {
		t.Error("unknown decision string")
	}
	if ModeAdvisory.String() != "advisory" || ModeEnforcing.String() != "enforcing" ||
		ModeEncrypting.String() != "encrypting" {
		t.Error("Mode.String wrong")
	}
	if Mode(42).String() != "mode(42)" {
		t.Error("unknown mode string")
	}
}
