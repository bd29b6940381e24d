package tagserver

import (
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/intercept"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/webapp"
)

var _ intercept.Engine = (*FailoverEngine)(nil)

// deviceEngine is a device's plug-in engine against the tag service: a
// FailoverEngine with no background prober.
func deviceEngine(t *testing.T, client *Client) *FailoverEngine {
	t.Helper()
	f, err := NewFailoverEngine(FailoverConfig{Client: client, Mode: policy.ModeEnforcing})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// Two devices, each running the full browser plug-in against the shared
// tag service: Alice's device observes the wiki; Bob's device — which
// never saw the wiki — gets his paste into docs blocked.
func TestPluginAgainstRemoteEngineCrossDevice(t *testing.T) {
	tagSrv, _ := newService(t)

	// The simulated cloud services (shared by both users).
	apps := webapp.NewServer()
	apps.SeedWikiPage("schedule", orgSecret)
	apps.SeedDoc("vendor", "Benign starter paragraph.")
	appSrv := httptest.NewServer(apps)
	t.Cleanup(appSrv.Close)

	newDevice := func(name string) (*browser.Browser, *intercept.Plugin) {
		t.Helper()
		client, err := NewClient(tagSrv.URL, name, fpConfig())
		if err != nil {
			t.Fatal(err)
		}
		plugin, err := intercept.New(intercept.Config{
			Engine: deviceEngine(t, client),
			User:   name,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(plugin.Shutdown)
		b := browser.New()
		plugin.AttachToBrowser(b)
		return b, plugin
	}

	// Alice opens the wiki: her plug-in registers the text remotely.
	aliceBrowser, alicePlugin := newDevice("alice-laptop")
	aliceTab, err := aliceBrowser.OpenTab(appSrv.URL + "/wiki/schedule")
	if err != nil {
		t.Fatal(err)
	}
	alicePlugin.Flush()

	// Bob opens only the docs page on his own device and pastes the text
	// (say, received out of band) — the shared service recognises it.
	bobBrowser, bobPlugin := newDevice("bob-laptop")
	docsTab, err := bobBrowser.OpenTab(appSrv.URL + "/docs/vendor")
	if err != nil {
		t.Fatal(err)
	}
	bobPlugin.Flush()
	ed, err := webapp.AttachDocsEditor(docsTab)
	if err != nil {
		t.Fatal(err)
	}
	bobBrowser.SetClipboard(aliceTab.Document().Root().ByID("par-0").InnerText())
	err = ed.PasteAppend()
	if !errors.Is(err, browser.ErrBlocked) {
		t.Fatalf("cross-device paste: err=%v, want ErrBlocked", err)
	}
	if got := apps.Doc("vendor"); len(got) != 1 {
		t.Errorf("blocked paste reached backend: %v", got)
	}
}

func TestRemoteEngineVerdictMapping(t *testing.T) {
	srv, _ := newService(t)
	client, err := NewClient(srv.URL, "dev", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	re := deviceEngine(t, client)
	if re.Mode() != policy.ModeEnforcing {
		t.Error("mode lost")
	}
	v, err := re.ObserveEdit("wiki/x#p0", "wiki", orgSecret)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow || v.Seg != "wiki/x#p0" {
		t.Errorf("verdict=%+v", v)
	}
	v, err = re.CheckText(orgSecret, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionBlock || len(v.Sources) == 0 {
		t.Errorf("check verdict=%+v", v)
	}
	// Document granularity round trip.
	v, err = re.ObserveDocumentEdit("wiki/x", "wiki", orgSecret)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow {
		t.Errorf("doc verdict=%+v", v)
	}
	// Errors propagate; an application-level rejection is not an outage.
	if _, err := re.CheckText(orgSecret, "ghost"); err == nil {
		t.Error("unknown dest accepted")
	}
	if st := re.Stats(); st.Degraded != 0 {
		t.Errorf("a live service degraded the engine: %+v", st)
	}
}

func TestParseDecision(t *testing.T) {
	for s, want := range map[string]policy.Decision{
		"allow": policy.DecisionAllow, "warn": policy.DecisionWarn,
		"block": policy.DecisionBlock, "encrypt": policy.DecisionEncrypt,
	} {
		got, err := policy.ParseDecision(s)
		if err != nil || got != want {
			t.Errorf("ParseDecision(%q)=%v,%v", s, got, err)
		}
	}
	if _, err := policy.ParseDecision("yolo"); err == nil {
		t.Error("bad decision accepted")
	}
}
