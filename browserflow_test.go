package browserflow

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// guide is long enough for the paper's default 15/30 winnowing parameters.
var guide = strings.Repeat("The interviewing guidelines require two independent interviewers for every candidate evaluation session without exception. ", 3)

func paperServices() []Service {
	return []Service{
		{Name: "itool", Privilege: []Tag{"ti"}, Confidentiality: []Tag{"ti"}},
		{Name: "wiki", Privilege: []Tag{"tw"}, Confidentiality: []Tag{"tw"}},
		{Name: "docs"},
	}
}

func newMW(t *testing.T, mode Mode) *Middleware {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	mw, err := New(cfg, paperServices()...)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NGram = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid config accepted")
	}
	dup := paperServices()
	dup = append(dup, dup[0])
	if _, err := New(DefaultConfig(), dup...); err == nil {
		t.Error("duplicate service accepted")
	}
}

func TestEndToEndPasteFlow(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	v, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Fatalf("own-service edit: %v", v.Decision)
	}
	v, err = mw.ObserveParagraph("docs", "docs/new#p0", guide)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionWarn {
		t.Fatalf("paste into docs: decision=%v, want warn", v.Decision)
	}
	if len(v.Sources) == 0 || v.Sources[0].Seg != "wiki/guide#p0" {
		t.Errorf("sources=%v", v.Sources)
	}
	if len(v.Violating) != 1 || v.Violating[0] != "tw" {
		t.Errorf("violating=%v", v.Violating)
	}
}

func TestCheckTextAndUpload(t *testing.T) {
	mw := newMW(t, ModeEnforcing)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	v, err := mw.CheckText(guide, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock {
		t.Errorf("CheckText decision=%v, want block", v.Decision)
	}
	v, err = mw.CheckUpload("wiki/guide#p0", "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("upload to own service: %v", v.Decision)
	}
}

func TestSuppressionAndAudit(t *testing.T) {
	mw := newMW(t, ModeEnforcing)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.ObserveParagraph("docs", "docs/new#p0", guide); err != nil {
		t.Fatal(err)
	}
	if err := mw.Suppress("alice", "docs/new#p0", "tw", "legal approved"); err != nil {
		t.Fatal(err)
	}
	v, err := mw.CheckUpload("docs/new#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("after suppression: %v", v.Decision)
	}
	entries := mw.AuditEntries()
	if len(entries) != 1 || entries[0].User != "alice" {
		t.Errorf("audit=%+v", entries)
	}
	// Label retains the suppressed tag.
	label := mw.Label("docs/new#p0")
	if label == nil || !label.Suppressed().Has("tw") {
		t.Errorf("label=%v", label)
	}
}

func TestCustomTagLifecycle(t *testing.T) {
	mw := newMW(t, ModeEnforcing)
	if _, err := mw.ObserveParagraph("wiki", "wiki/secret#p0", guide); err != nil {
		t.Fatal(err)
	}
	if err := mw.AllocateTag("alice", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddTagToSegment("alice", "wiki/secret#p0", "tn"); err != nil {
		t.Fatal(err)
	}
	// The wiki stores the segment, so tn was auto-granted there.
	if v, _ := mw.CheckUpload("wiki/secret#p0", "wiki"); v.Decision != DecisionAllow {
		t.Errorf("own service after custom tag: %v", v.Decision)
	}
	if err := mw.GrantTag("alice", "itool", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := mw.RevokeTag("alice", "itool", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := mw.GrantTag("bob", "itool", "tn"); err == nil {
		t.Error("non-owner grant accepted")
	}
}

func TestSimilarityAndSources(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	d, err := mw.Similarity(guide, guide)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.0 {
		t.Errorf("self similarity=%v", d)
	}
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	sources, err := mw.Sources(guide)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 || sources[0].Seg != "wiki/guide#p0" {
		t.Errorf("sources=%v", sources)
	}
}

func TestNewFromPolicyFile(t *testing.T) {
	policyJSON := `{
  "services": [
    {"name": "wiki", "privilege": ["tw"], "confidentiality": ["tw"]},
    {"name": "docs"}
  ],
  "mode": "enforcing",
  "secrets": [{"name": "db", "value": "hunter22-prod"}]
}`
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := writeFile(path, policyJSON); err != nil {
		t.Fatal(err)
	}
	mw, err := NewFromPolicyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mw.Config().Mode != ModeEnforcing {
		t.Errorf("mode=%v", mw.Config().Mode)
	}
	if _, err := mw.ObserveParagraph("wiki", "wiki/x#p0", guide); err != nil {
		t.Fatal(err)
	}
	v, err := mw.CheckText(guide, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock {
		t.Errorf("decision=%v", v.Decision)
	}
	// Secrets registered.
	if got := mw.ScanSecrets("use hunter22-prod tonight"); len(got) != 1 || got[0].Name != "db" {
		t.Errorf("secrets=%v", got)
	}
	if mw.SecretStore() == nil {
		t.Error("no secret store")
	}
	// Bad file.
	if _, err := NewFromPolicyFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing policy file accepted")
	}
}

func TestRegisterSecretValidation(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if err := mw.RegisterSecret("tiny", "ab"); err == nil {
		t.Error("short secret accepted")
	}
	if err := mw.RegisterSecret("ok", "long-enough"); err != nil {
		t.Fatal(err)
	}
	if got := mw.ScanSecrets("nothing here"); got != nil {
		t.Errorf("scan=%v", got)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}

func TestPerSegmentThresholds(t *testing.T) {
	// A non-repeating source: repetition would make partial copies carry
	// the full fingerprint.
	source := "Quarterly revenue grew twelve percent while infrastructure spending fell by a third. " +
		"The board approved expanding the Dublin office and hiring forty engineers. " +
		"Two competitor acquisitions remain under review by outside counsel this quarter."
	mw := newMW(t, ModeEnforcing)
	if _, err := mw.ObserveParagraph("wiki", "wiki/report#p0", source); err != nil {
		t.Fatal(err)
	}
	// Raise the source's threshold to 0.95: a half copy passes.
	mw.SetParagraphThreshold("wiki/report#p0", 0.95)
	v, err := mw.CheckText(source[:len(source)/2], "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionAllow {
		t.Errorf("half copy at threshold 0.95: %v", v.Decision)
	}
	// Drop it to 0: even a short excerpt is flagged.
	mw.SetParagraphThreshold("wiki/report#p0", 0)
	v, err = mw.CheckText(source[:len(source)/3], "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock {
		t.Errorf("excerpt at threshold 0: %v", v.Decision)
	}
}

func TestAttribute(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	observed := "my own intro sentence first, then the paste: " + guide
	spans, err := mw.Attribute(observed, "wiki/guide#p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans attributed")
	}
	for _, s := range spans {
		if s.Start < 0 || s.End > len(observed) || s.Start >= s.End {
			t.Errorf("bad span %+v", s)
		}
	}
}

func TestForget(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	mw.Forget("wiki/guide#p0")
	sources, err := mw.Sources(guide)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 0 {
		t.Errorf("sources after Forget=%v", sources)
	}
}

func TestStats(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.ObserveDocument("wiki", "wiki/guide", guide); err != nil {
		t.Fatal(err)
	}
	s := mw.Stats()
	if s.ParagraphSegments != 1 || s.DocumentSegments != 1 || s.DistinctHashes == 0 {
		t.Errorf("stats=%+v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if _, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", guide); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.enc")
	if err := mw.Save(path, "passphrase"); err != nil {
		t.Fatal(err)
	}
	mw2 := newMW(t, ModeAdvisory)
	if err := mw2.Load(path, "passphrase"); err != nil {
		t.Fatal(err)
	}
	sources, err := mw2.Sources(guide)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 {
		t.Errorf("restored sources=%v", sources)
	}
	if err := mw2.Load(path, "wrong"); err == nil {
		t.Error("wrong passphrase accepted")
	}
}

// TestLoadDropsCachedDecisions is the fail-open regression for a restore
// under a warm decision cache: the index the cached verdict was computed
// against is gone, so re-observing the same text must index the segment
// again — with the cache kept, the observe is answered from it, never
// reaches the index, and the upload check below allows.
func TestLoadDropsCachedDecisions(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.bf")
	if err := newMW(t, ModeEnforcing).Save(empty, ""); err != nil {
		t.Fatal(err)
	}
	mw := newMW(t, ModeEnforcing)
	observe := func() {
		t.Helper()
		if _, err := mw.ObserveParagraph("wiki", "wiki/a#p0", guide); err != nil {
			t.Fatal(err)
		}
	}
	observe()
	if err := mw.Load(empty, ""); err != nil {
		t.Fatal(err)
	}
	if s := mw.Stats(); s.ParagraphSegments != 0 || s.DistinctHashes != 0 {
		t.Fatalf("loaded an empty state, stats=%+v", s)
	}
	observe()
	if s := mw.Stats(); s.ParagraphSegments != 1 || s.DistinctHashes == 0 {
		t.Errorf("segment observed after Load is not indexed: stats=%+v", s)
	}
	v, err := mw.CheckText(guide, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != DecisionBlock || len(v.Violating) != 1 || v.Violating[0] != "tw" {
		t.Errorf("verdict=%+v, want block on tw", v)
	}
}

func TestRegisterServiceAfterNew(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if err := mw.RegisterService(Service{Name: "evernote"}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterService(Service{Name: "wiki"}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := mw.CheckText("anything at all", "evernote"); err != nil {
		t.Errorf("new service unusable: %v", err)
	}
}

func TestOverride(t *testing.T) {
	mw := newMW(t, ModeEnforcing)
	v := mw.Override("alice", "docs/x#p0", "docs", "approved")
	if v.Decision != DecisionAllow {
		t.Errorf("override=%v", v.Decision)
	}
	if len(mw.AuditEntries()) != 1 {
		t.Error("override not audited")
	}
}

func TestErrorsPropagate(t *testing.T) {
	mw := newMW(t, ModeAdvisory)
	if _, err := mw.ObserveParagraph("ghost", "x#p0", "text"); err == nil {
		t.Error("unknown service accepted")
	}
	if _, err := mw.CheckText("text", "ghost"); err == nil {
		t.Error("unknown service accepted in CheckText")
	}
	var pathErr error = errors.New("x")
	_ = pathErr
	if err := mw.Load(filepath.Join(t.TempDir(), "missing"), ""); err == nil {
		t.Error("missing snapshot accepted")
	}
}
