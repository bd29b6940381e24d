package intercept

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

// BenchmarkPluginKeystrokeThroughput measures sustained end-to-end edits
// per second through the full stack: DOM mutation -> observer -> XHR hook
// -> backend, with the asynchronous decision worker running.
func BenchmarkPluginKeystrokeThroughput(b *testing.B) {
	tracker, err := disclosure.NewTracker(disclosure.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range []struct {
		name   string
		lp, lc tdm.TagSet
	}{
		{name: webapp.ServiceWiki, lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
		{name: webapp.ServiceDocs, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			b.Fatal(err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		b.Fatal(err)
	}
	plugin, err := New(Config{Engine: engine, User: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer plugin.Shutdown()

	server := webapp.NewServer()
	server.SeedDoc("bench", "Starting paragraph for the benchmark document.")
	srv := httptest.NewServer(server)
	defer srv.Close()

	br := browser.New()
	plugin.AttachToBrowser(br)
	tab, err := br.OpenTab(srv.URL + "/docs/bench")
	if err != nil {
		b.Fatal(err)
	}
	plugin.Flush()
	ed, err := webapp.AttachDocsEditor(tab)
	if err != nil {
		b.Fatal(err)
	}

	text := "The quick brown fox jumps over the lazy dog near the river bank today"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ed.ReplaceParagraph(0, fmt.Sprintf("%s %d", text, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	plugin.Flush()
}
