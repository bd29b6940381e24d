package intercept

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

func newHTTPTestServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// newNotesWorld builds a deployment including the Notes service, with or
// without the §4.4 service-specific payload adapter.
func newNotesWorld(t *testing.T, withAdapter bool) *world {
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
		{name: webapp.ServiceNotes, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{server: webapp.NewServer(), engine: engine}
	w.srv = newHTTPTestServer(t, w.server)

	cfg := Config{
		Engine: engine,
		User:   "alice",
		OnEvent: func(e Event) {
			w.mu.Lock()
			w.events = append(w.events, e)
			w.mu.Unlock()
		},
	}
	if withAdapter {
		cfg.PayloadAdapters = map[string]PayloadAdapter{
			webapp.ServiceNotes: NotesPayloadAdapter,
		}
	}
	w.plugin, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.plugin.Shutdown)
	w.browser = browser.New()
	w.plugin.AttachToBrowser(w.browser)
	return w
}

func TestNotesAdapterBlocksObfuscatedUpload(t *testing.T) {
	w := newNotesWorld(t, true)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedNote("todo", "Harmless grocery list for the week.")

	wikiTab := w.openWiki(t, "guidelines")
	notesTab, err := w.browser.OpenTab(w.srv.URL + "/notes/todo")
	if err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	ed, err := webapp.AttachNotesEditor(notesTab)
	if err != nil {
		t.Fatal(err)
	}

	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	err = ed.PasteAppend()
	if !errors.Is(err, browser.ErrBlocked) {
		t.Fatalf("err=%v, want ErrBlocked (adapter should see through the envelope)", err)
	}
	if got := w.server.Note("todo"); len(got) != 1 {
		t.Errorf("blocked upload reached backend: %v", got)
	}
}

func TestNotesWithoutAdapterUploadsButDOMWarns(t *testing.T) {
	w := newNotesWorld(t, false)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedNote("todo", "Harmless grocery list for the week.")

	wikiTab := w.openWiki(t, "guidelines")
	notesTab, err := w.browser.OpenTab(w.srv.URL + "/notes/todo")
	if err != nil {
		t.Fatal(err)
	}
	w.plugin.Flush()
	ed, err := webapp.AttachNotesEditor(notesTab)
	if err != nil {
		t.Fatal(err)
	}

	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	// Without the wire-format adapter the XHR hook cannot decode the
	// envelope, so the upload goes through (like a network DLP would miss
	// it)...
	if err := ed.PasteAppend(); err != nil {
		t.Fatalf("paste without adapter: %v", err)
	}
	if got := w.server.Note("todo"); len(got) != 2 {
		t.Fatalf("backend=%v", got)
	}
	// ...but the DOM mutation observers still see the plaintext and flag
	// the paragraph.
	w.plugin.Flush()
	var sawWarn bool
	for _, e := range w.eventList() {
		if e.Kind == EventEdit && e.Service == webapp.ServiceNotes && e.Verdict.Violation() {
			sawWarn = true
		}
	}
	if !sawWarn {
		t.Error("DOM observation missed the pasted secret in the notes tab")
	}
	pasted := ed.Paragraphs()[1]
	if !strings.Contains(pasted.Attr("style"), "background-color") {
		t.Errorf("pasted note paragraph not recoloured: %q", pasted.Attr("style"))
	}
}

func TestNotesPayloadAdapter(t *testing.T) {
	payload, err := webapp.EncodeNotesPayload(webapp.NotesPayload{Paragraphs: []string{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	text, ok := NotesPayloadAdapter([]byte("payload=" + payload))
	if !ok || !strings.Contains(text, "alpha") || !strings.Contains(text, "beta") {
		t.Errorf("adapter=%q,%v", text, ok)
	}
	if _, ok := NotesPayloadAdapter([]byte("payload=!!!")); ok {
		t.Error("bad payload accepted")
	}
	if _, ok := NotesPayloadAdapter([]byte("%zz")); ok {
		t.Error("bad query accepted")
	}
}
