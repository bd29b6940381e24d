package intercept

import (
	"bytes"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/metrics"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

const wikiSecret = "The confidential interviewing guidelines require two interviewers for every single candidate session."

// world is a full simulated deployment: services, browser, plug-in.
type world struct {
	server  *webapp.Server
	srv     *httptest.Server
	browser *browser.Browser
	plugin  *Plugin
	engine  *policy.Engine
	latency *metrics.Recorder

	mu     sync.Mutex
	events []Event
}

// eventList returns a copy of the recorded events.
func (w *world) eventList() []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Event(nil), w.events...)
}

func newWorld(t *testing.T, mode policy.Mode) *world {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range []struct {
		name   string
		lp, lc tdm.TagSet
	}{
		{name: webapp.ServiceWiki, lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
		{name: webapp.ServiceITool, lp: tdm.NewTagSet("ti"), lc: tdm.NewTagSet("ti")},
		{name: webapp.ServiceDocs, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, mode)
	if err != nil {
		t.Fatal(err)
	}

	w := &world{
		server:  webapp.NewServer(),
		engine:  engine,
		latency: metrics.NewRecorder(),
	}
	w.srv = httptest.NewServer(w.server)
	t.Cleanup(w.srv.Close)

	w.plugin, err = New(Config{
		Engine:  engine,
		User:    "alice",
		Latency: w.latency,
		OnEvent: func(e Event) {
			w.mu.Lock()
			w.events = append(w.events, e)
			w.mu.Unlock()
		},
		EncryptionKey: deriveTestKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.plugin.Shutdown)

	w.browser = browser.New()
	w.plugin.AttachToBrowser(w.browser)
	return w
}

func deriveTestKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

// openWiki loads the wiki page and waits for the initial label scan.
func (w *world) openWiki(t *testing.T, page string) *browser.Tab {
	t.Helper()
	tab, err := w.browser.OpenTab(w.srv.URL + "/wiki/" + page)
	if err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	return tab
}

func (w *world) openDocs(t *testing.T, doc string) (*browser.Tab, *webapp.DocsEditor) {
	t.Helper()
	tab, err := w.browser.OpenTab(w.srv.URL + "/docs/" + doc)
	if err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	ed, err := webapp.AttachDocsEditor(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ed
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	w := newWorld(t, policy.ModeEncrypting)
	if _, err := New(Config{Engine: w.engine}); err == nil {
		t.Error("encrypting mode without key accepted")
	}
}

func TestPasteIntoDocsAdvisoryWarnsAndRecolours(t *testing.T) {
	w := newWorld(t, policy.ModeAdvisory)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "My own unrelated meeting notes live here today.")

	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")

	// Copy the wiki paragraph and paste it into docs.
	par := wikiTab.Document().Root().ByID("par-0")
	if par == nil {
		t.Fatal("wiki paragraph missing")
	}
	wikiTab.CopyText(par)
	if err := ed.PasteAppend(); err != nil {
		t.Fatalf("advisory paste should not block: %v", err)
	}
	w.plugin.Flush()

	// Backend received the text (advisory mode).
	if got := w.server.Doc("notes"); len(got) != 2 {
		t.Fatalf("backend=%v", got)
	}
	// Paragraph recoloured red.
	pasted := ed.Paragraphs()[1]
	if !strings.Contains(pasted.Attr("style"), "background-color") {
		t.Errorf("pasted paragraph not recoloured: style=%q", pasted.Attr("style"))
	}
	// Warning events recorded.
	if w.plugin.WarnCount() == 0 {
		t.Error("no warnings recorded")
	}
	if w.latency.Count() == 0 {
		t.Error("no latencies recorded")
	}
}

func TestPasteIntoDocsEnforcingBlocks(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Benign starter paragraph for this document.")

	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")

	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	err := ed.PasteAppend()
	if !errors.Is(err, browser.ErrBlocked) {
		t.Fatalf("err=%v, want ErrBlocked", err)
	}
	// The upload never reached the backend.
	if got := w.server.Doc("notes"); len(got) != 1 {
		t.Errorf("backend received blocked text: %v", got)
	}
}

func TestPasteIntoDocsEncryptingSealsPayload(t *testing.T) {
	w := newWorld(t, policy.ModeEncrypting)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Benign starter paragraph for this document.")

	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")

	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	if err := ed.PasteAppend(); err != nil {
		t.Fatalf("encrypting paste should not block: %v", err)
	}
	got := w.server.Doc("notes")
	if len(got) != 2 {
		t.Fatalf("backend=%v", got)
	}
	if !strings.HasPrefix(got[1], "bfenc:") {
		t.Fatalf("backend stored plaintext: %q", got[1])
	}
	plain, err := DecryptText(deriveTestKey(), got[1])
	if err != nil {
		t.Fatal(err)
	}
	if plain != wikiSecret {
		t.Errorf("decrypted=%q", plain)
	}
}

func TestOwnTextInDocsAllowed(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	w.server.SeedDoc("notes", "Starter.")
	_, ed := w.openDocs(t, "notes")
	if err := ed.AppendParagraph("Fresh text typed directly into the docs editor, never seen elsewhere."); err != nil {
		t.Fatalf("own text blocked: %v", err)
	}
	w.plugin.Flush()
	if got := w.server.Doc("notes"); len(got) != 2 {
		t.Errorf("backend=%v", got)
	}
}

func TestFormSubmissionBlocked(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	w.server.SeedEvaluation("bob", "Candidate bob showed deep knowledge of distributed consensus protocols today.")
	w.server.SeedWikiPage("notes", "Wiki starter paragraph.")

	itoolTab, err := w.browser.OpenTab(w.srv.URL + "/itool/bob")
	if err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()

	// Copy the evaluation and submit it through the wiki form.
	note := itoolTab.Document().Root().ByID("note-0")
	itoolTab.CopyText(note)

	wikiTab := w.openWiki(t, "notes")
	form := wikiTab.Document().Root().ByID("edit")
	err = wikiTab.SubmitForm(form, map[string]string{"content": w.browser.Clipboard()})
	if !errors.Is(err, browser.ErrBlocked) {
		t.Fatalf("err=%v, want ErrBlocked", err)
	}
	if got := w.server.WikiPage("notes"); len(got) != 1 {
		t.Errorf("blocked form content stored: %v", got)
	}
	// A form event with a violation was emitted.
	var sawForm bool
	for _, e := range w.eventList() {
		if e.Kind == EventForm && e.Verdict.Violation() {
			sawForm = true
		}
	}
	if !sawForm {
		t.Error("no form violation event")
	}
}

func TestFormSubmissionCleanTextPasses(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	w.server.SeedWikiPage("notes", "Wiki starter paragraph.")
	wikiTab := w.openWiki(t, "notes")
	form := wikiTab.Document().Root().ByID("edit")
	if err := wikiTab.SubmitForm(form, map[string]string{"content": "A brand new public announcement."}); err != nil {
		t.Fatalf("clean form blocked: %v", err)
	}
	if got := w.server.WikiPage("notes"); len(got) != 2 {
		t.Errorf("WikiPage=%v", got)
	}
}

func TestRecolourClearsAfterRewrite(t *testing.T) {
	w := newWorld(t, policy.ModeAdvisory)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Starter paragraph for the document.")

	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	if err := ed.PasteAppend(); err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	pasted := ed.Paragraphs()[1]
	if pasted.Attr("style") == "" {
		t.Fatal("precondition: paragraph should be flagged")
	}
	// Rewrite the paragraph entirely.
	if err := ed.ReplaceParagraph(1, "Completely fresh content about gardening, tulips, roses and soil."); err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	if got := pasted.Attr("style"); got != "" {
		t.Errorf("style=%q after rewrite, want cleared", got)
	}
}

func TestUntrackedOriginIgnored(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	// A URL outside the three services: hooks must pass through.
	mux := webapp.NewServer()
	_ = mux
	tab, err := w.browser.OpenTab(w.srv.URL + "/other/x")
	if err == nil {
		// Page 404s in webapp, so an error is expected; if not, hooks
		// still must not fire.
		_ = tab
	}
	if got := w.eventList(); len(got) != 0 {
		t.Errorf("events for untracked origin: %v", got)
	}
}

func TestDecryptTextErrors(t *testing.T) {
	key := deriveTestKey()
	if _, err := DecryptText(key, "not-encrypted"); err == nil {
		t.Error("bad prefix accepted")
	}
	if _, err := DecryptText(key, "bfenc:!!!"); err == nil {
		t.Error("bad base64 accepted")
	}
	if _, err := DecryptText(key, "bfenc:AAAA"); err == nil {
		t.Error("short ciphertext accepted")
	}
	if _, err := DecryptText([]byte("short"), "bfenc:AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"); err == nil {
		t.Error("bad key size accepted")
	}
}

func TestLoggerReceivesViolationsAndErrors(t *testing.T) {
	w := newWorld(t, policy.ModeAdvisory)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	w.plugin.Shutdown()
	plugin, err := New(Config{Engine: w.engine, User: "alice", Logger: logger,
		OnEvent: func(Event) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plugin.Shutdown)
	w.plugin = plugin
	w.browser = browser.New()
	plugin.AttachToBrowser(w.browser)

	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Starter paragraph.")
	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	if err := ed.PasteAppend(); err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	if !strings.Contains(buf.String(), "policy violation") {
		t.Errorf("log missing violation: %s", buf.String())
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	w := newWorld(t, policy.ModeAdvisory)
	w.server.SeedWikiPage("p", "Some page text that needs scanning on load.")
	if _, err := w.browser.OpenTab(w.srv.URL + "/wiki/p"); err != nil {
		t.Fatal(err)
	}
	w.plugin.Shutdown()
	// Second shutdown is a no-op.
	w.plugin.Shutdown()
}
