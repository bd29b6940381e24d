// Liveproxy drives the full simulated stack: the three HTTP cloud services,
// a multi-tab browser, and the BrowserFlow plug-in intercepting DOM
// mutations, form submissions and AJAX requests — the §5 implementation
// paths end to end.
//
// Run with:
//
//	go run ./examples/liveproxy
package main

import (
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/intercept"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Backend services with seeded content.
	services := webapp.NewServer()
	services.SeedWikiPage("playbook",
		"The incident playbook requires paging the on-call lead before any public statement is drafted.",
		"Postmortems are internal documents and must not be shared with vendors.")
	services.SeedDoc("vendor-notes", "Notes shared with the vendor about the integration timeline.")
	srv := httptest.NewServer(services)
	defer srv.Close()

	// Policy: wiki text is tagged tw; docs is untrusted.
	tracker, err := disclosure.NewTracker(disclosure.DefaultParams())
	if err != nil {
		return err
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
			return err
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		return err
	}

	latency := obs.NewHistogram(obs.LatencyBuckets)
	plugin, err := intercept.New(intercept.Config{
		Engine:  engine,
		User:    "oncall",
		Latency: latency,
		OnEvent: func(e intercept.Event) {
			if e.Verdict.Violation() {
				fmt.Printf("  plugin[%s] %s: %s %v\n", e.Kind, e.Service, e.Verdict.Decision, e.Verdict.Violating)
			}
		},
	})
	if err != nil {
		return err
	}
	defer plugin.Shutdown()

	b := browser.New()
	plugin.AttachToBrowser(b)

	fmt.Println("opening wiki and docs tabs...")
	wikiTab, err := b.OpenTab(srv.URL + "/wiki/playbook")
	if err != nil {
		return err
	}
	docsTab, err := b.OpenTab(srv.URL + "/docs/vendor-notes")
	if err != nil {
		return err
	}
	plugin.Flush()

	// 1. Pasting the playbook into the vendor doc is blocked at the XHR.
	fmt.Println("\n1. paste wiki playbook into the vendor doc (AJAX path):")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	editor, err := webapp.AttachDocsEditor(docsTab)
	if err != nil {
		return err
	}
	if err := editor.PasteAppend(); errors.Is(err, browser.ErrBlocked) {
		fmt.Println("  upload blocked before leaving the browser ✔")
	} else if err != nil {
		return err
	}
	fmt.Printf("  vendor doc on the server still has %d paragraph(s)\n", len(services.Doc("vendor-notes")))

	// 2. Typing fresh text is fine.
	fmt.Println("\n2. type fresh text into the vendor doc:")
	if err := editor.AppendParagraph("Integration timeline: API keys next week, sandbox the week after."); err != nil {
		return err
	}
	fmt.Printf("  vendor doc now has %d paragraphs ✔\n", len(services.Doc("vendor-notes")))

	// 3. Submitting wiki text through the wiki's own form is fine.
	fmt.Println("\n3. add a paragraph to the wiki through its form (form path):")
	form := wikiTab.Document().Root().ByID("edit")
	if err := wikiTab.SubmitForm(form, map[string]string{"content": "Remember to rotate the pager schedule each Monday."}); err != nil {
		return err
	}
	fmt.Printf("  wiki page now has %d paragraphs ✔\n", len(services.WikiPage("playbook")))

	plugin.Flush()
	fmt.Printf("\ndisclosure decisions: %s\n", latency.Snapshot())
	return nil
}
