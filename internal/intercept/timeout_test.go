package intercept

import (
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/policy"
)

// stalledChecks is an engine whose synchronous text checks do not answer
// until release is closed; everything else goes straight through.
type stalledChecks struct {
	Engine
	release chan struct{}
}

func (s stalledChecks) CheckText(text, destService string) (policy.Verdict, error) {
	<-s.release
	return s.Engine.CheckText(text, destService)
}

// newTimeoutWorld rebuilds the standard world with an (absurdly small)
// check timeout and an engine that answers no check before the test ends,
// so every synchronous check fails open — however fast a check is.
func newTimeoutWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, policy.ModeEnforcing)
	w.plugin.Shutdown()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	plugin, err := New(Config{
		Engine:       stalledChecks{Engine: w.engine, release: release},
		User:         "alice",
		CheckTimeout: time.Nanosecond,
		OnEvent: func(e Event) {
			w.mu.Lock()
			w.events = append(w.events, e)
			w.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plugin.Shutdown)
	w.plugin = plugin
	w.browser = browser.New()
	w.plugin.AttachToBrowser(w.browser)
	return w
}

func TestCheckTimeoutFailsOpen(t *testing.T) {
	w := newTimeoutWorld(t)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Starter paragraph for the notes doc.")

	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))

	// Even in enforcing mode, the timed-out check lets the upload through
	// (fail-open) rather than stalling the service.
	if err := ed.PasteAppend(); err != nil {
		t.Fatalf("timed-out paste blocked: %v", err)
	}
	if got := w.server.Doc("notes"); len(got) != 2 {
		t.Fatalf("backend=%v", got)
	}
	var sawTimeout bool
	for _, e := range w.eventList() {
		if e.Kind == EventXHR && e.TimedOut {
			sawTimeout = true
			if e.Verdict.Decision != policy.DecisionAllow {
				t.Errorf("timeout verdict=%v", e.Verdict.Decision)
			}
		}
	}
	if !sawTimeout {
		t.Error("no timeout event emitted")
	}

	// The asynchronous DOM path still flags the pasted paragraph.
	w.plugin.Flush()
	var sawWarn bool
	for _, e := range w.eventList() {
		if e.Kind == EventEdit && e.Verdict.Violation() {
			sawWarn = true
		}
	}
	if !sawWarn {
		t.Error("asynchronous path missed the disclosure after fail-open")
	}
}

func TestNoTimeoutByDefault(t *testing.T) {
	w := newWorld(t, policy.ModeEnforcing)
	w.server.SeedWikiPage("guidelines", wikiSecret)
	w.server.SeedDoc("notes", "Starter paragraph.")
	wikiTab := w.openWiki(t, "guidelines")
	_, ed := w.openDocs(t, "notes")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	if err := ed.PasteAppend(); err == nil {
		t.Fatal("without a timeout the enforcing paste must block")
	}
	for _, e := range w.eventList() {
		if e.TimedOut {
			t.Errorf("unexpected timeout event: %+v", e)
		}
	}
}
