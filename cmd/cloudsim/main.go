// Command cloudsim runs the three simulated cloud services (wiki, itool,
// docs) on a local HTTP address, optionally driving a demonstration of the
// BrowserFlow plug-in against them.
//
// Usage:
//
//	cloudsim -addr :8080             # serve the three services
//	cloudsim -demo                   # run the paste-detection demo and exit
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cloudsim", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		demo    = fs.Bool("demo", false, "run the in-process plug-in demo and exit")
		htmlOut = fs.String("htmlout", "", "with -demo: write the docs tab's final DOM (Figure 2's red-paragraph state) to this HTML file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	server := webapp.NewServer()
	seed(server)

	if *demo {
		return runDemo(server, *htmlOut)
	}

	fmt.Printf("cloudsim: serving wiki/itool/docs on %s\n", *addr)
	fmt.Printf("try: curl http://localhost%s/wiki/interview-guidelines\n", *addr)
	return http.ListenAndServe(*addr, server)
}

func seed(s *webapp.Server) {
	s.SeedWikiPage("interview-guidelines",
		"Interviews always involve two independent interviewers and a written evaluation filed the same day.",
		"Candidate evaluations must never leave the internal tools, including anonymised excerpts.")
	s.SeedEvaluation("candidate-42",
		"Excellent grasp of consistency models; recommended for the distributed systems team.")
	s.SeedDoc("shared-notes",
		"Meeting notes shared with the external design agency.")
}

// runDemo builds a full in-process deployment and replays the §2 scenario:
// a user copies wiki text into the external docs editor and BrowserFlow
// warns. With htmlOut set, the docs tab's final DOM — including the red
// paragraph background of Figure 2 — is written to disk.
func runDemo(server *webapp.Server, htmlOut string) error {
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
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		return err
	}

	httpSrv := httptest.NewServer(server)
	defer httpSrv.Close()

	latency := obs.NewHistogram(obs.LatencyBuckets)
	plugin, err := intercept.New(intercept.Config{
		Engine:  engine,
		User:    "demo-user",
		Latency: latency,
		OnEvent: func(e intercept.Event) {
			if e.Verdict.Violation() {
				fmt.Printf("  [%s] %s: decision=%s violating=%v\n",
					e.Kind, e.Service, e.Verdict.Decision, e.Verdict.Violating)
			}
		},
	})
	if err != nil {
		return err
	}
	defer plugin.Shutdown()

	b := browser.New()
	plugin.AttachToBrowser(b)

	fmt.Println("demo: opening wiki tab (labels assigned to existing text)")
	wikiTab, err := b.OpenTab(httpSrv.URL + "/wiki/interview-guidelines")
	if err != nil {
		return err
	}
	plugin.Flush()

	fmt.Println("demo: opening docs tab")
	docsTab, err := b.OpenTab(httpSrv.URL + "/docs/shared-notes")
	if err != nil {
		return err
	}
	plugin.Flush()

	fmt.Println("demo: copying a wiki paragraph and pasting into docs")
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	editor, err := webapp.AttachDocsEditor(docsTab)
	if err != nil {
		return err
	}
	if err := editor.PasteAppend(); err != nil {
		return err
	}
	plugin.Flush()

	fmt.Printf("demo: %d warnings issued, decision latency %s\n",
		plugin.WarnCount(), latency.Snapshot())

	if htmlOut != "" {
		html := docsTab.Document().Root().OuterHTML()
		if err := os.WriteFile(htmlOut, []byte(html), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", htmlOut, err)
		}
		fmt.Printf("demo: docs tab DOM (Figure 2 state) written to %s\n", htmlOut)
	}
	return nil
}
