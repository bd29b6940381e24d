// Enterprise demonstrates the shared tag-service deployment: two
// employees' devices run the BrowserFlow plug-in against one central tag
// service (cmd/bftagd in production), so text observed on Alice's laptop
// is recognised — and blocked — when Bob pastes it on his.
//
// Only winnowed fingerprint hashes cross the wire; the text itself never
// leaves either device.
//
// Run with:
//
//	go run ./examples/enterprise
package main

import (
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/intercept"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/webapp"
)

const schedule = "Cutover weekend: payments move Saturday 02:00, identity Sunday 03:00, " +
	"rollback owners are listed per team in the internal runbook only."

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The central tag service (what bftagd serves in production).
	cfg := browserflow.DefaultConfig()
	cfg.Mode = browserflow.ModeEnforcing
	mw, err := browserflow.New(cfg,
		browserflow.Service{Name: "wiki", Privilege: []browserflow.Tag{"tw"}, Confidentiality: []browserflow.Tag{"tw"}},
		browserflow.Service{Name: "itool", Privilege: []browserflow.Tag{"ti"}, Confidentiality: []browserflow.Tag{"ti"}},
		browserflow.Service{Name: "docs"},
		browserflow.Service{Name: "notes"},
	)
	if err != nil {
		return err
	}
	tagService, err := tagserver.NewServer(mw.Engine())
	if err != nil {
		return err
	}
	tagSrv := httptest.NewServer(tagService)
	defer tagSrv.Close()
	fmt.Println("tag service up (hashes-only wire)")

	// Shared cloud services.
	apps := webapp.NewServer()
	apps.SeedWikiPage("cutover", schedule)
	apps.SeedDoc("vendor-notes", "Vendor integration notes.")
	appSrv := httptest.NewServer(apps)
	defer appSrv.Close()

	newDevice := func(name string) (*browser.Browser, *intercept.Plugin, error) {
		client, err := tagserver.NewClient(tagSrv.URL, name, fingerprint.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		engine, err := tagserver.NewFailoverEngine(tagserver.FailoverConfig{Client: client, Mode: policy.ModeEnforcing})
		if err != nil {
			return nil, nil, err
		}
		plugin, err := intercept.New(intercept.Config{Engine: engine, User: name})
		if err != nil {
			return nil, nil, err
		}
		b := browser.New()
		plugin.AttachToBrowser(b)
		return b, plugin, nil
	}

	// Alice reads the cutover plan on her laptop.
	aliceBrowser, alicePlugin, err := newDevice("alice-laptop")
	if err != nil {
		return err
	}
	defer alicePlugin.Shutdown()
	aliceTab, err := aliceBrowser.OpenTab(appSrv.URL + "/wiki/cutover")
	if err != nil {
		return err
	}
	alicePlugin.Flush()
	fmt.Println("alice-laptop: wiki page observed, labels registered centrally")

	// Bob — different device, never opened the wiki — pastes the plan
	// (received over chat, say) into the vendor-facing doc.
	bobBrowser, bobPlugin, err := newDevice("bob-laptop")
	if err != nil {
		return err
	}
	defer bobPlugin.Shutdown()
	docsTab, err := bobBrowser.OpenTab(appSrv.URL + "/docs/vendor-notes")
	if err != nil {
		return err
	}
	bobPlugin.Flush()
	ed, err := webapp.AttachDocsEditor(docsTab)
	if err != nil {
		return err
	}
	bobBrowser.SetClipboard(aliceTab.Document().Root().ByID("par-0").InnerText())
	if err := ed.PasteAppend(); errors.Is(err, browser.ErrBlocked) {
		fmt.Println("bob-laptop: paste into vendor doc BLOCKED by the shared policy ✔")
	} else if err != nil {
		return err
	} else {
		fmt.Println("bob-laptop: paste went through (unexpected)")
	}
	fmt.Printf("vendor doc on the server still has %d paragraph(s)\n", len(apps.Doc("vendor-notes")))

	stats := mw.Stats()
	fmt.Printf("central state: %d segments, %d distinct hashes, %d audit entries\n",
		stats.ParagraphSegments, stats.DistinctHashes, stats.AuditEntries)
	return nil
}
