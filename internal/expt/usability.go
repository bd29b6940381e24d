package expt

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/cryptoall"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/intercept"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

// The usability comparison operationalises §2.2's critique of browser-side
// encrypt-everything enforcement ("often infeasible ... because services
// may need to index, search, and inspect the original data"): three
// protection systems run the same workflow — type fresh public text and
// paste confidential wiki text into an external doc — and are scored on
// confidentiality *and* preserved service functionality.

// UsabilityRow is one protection system's scorecard.
type UsabilityRow struct {
	// System names the protection approach.
	System string

	// SensitiveProtected reports whether the pasted confidential text was
	// kept off the service in plaintext.
	SensitiveProtected bool

	// PublicSearchable reports whether server-side search still finds the
	// user's own public text.
	PublicSearchable bool
}

// UsabilityResult is the comparison table.
type UsabilityResult struct {
	Rows []UsabilityRow
}

// RunUsabilityComparison drives the full browser stack once per system.
func RunUsabilityComparison(scale Scale, params disclosure.Params) (UsabilityResult, error) {
	gen := dataset.NewTextGen(scale.Seed+3333, 2000)
	secret := gen.Paragraph(6, 8)
	public := "completely public project status update " + gen.Sentence(10, 12)

	var result UsabilityResult
	for _, system := range []string{"none", "encrypt-all", "browserflow"} {
		row, err := runUsabilitySystem(system, secret, public, params)
		if err != nil {
			return UsabilityResult{}, fmt.Errorf("%s: %w", system, err)
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

func runUsabilitySystem(system, secret, public string, params disclosure.Params) (UsabilityRow, error) {
	row := UsabilityRow{System: system}

	server := webapp.NewServer()
	server.SeedWikiPage("secret", secret)
	server.SeedDoc("notes", "starter paragraph")
	srv := httptest.NewServer(server)
	defer srv.Close()

	b := browser.New()
	// settle waits for the protection system's asynchronous page
	// observations, so the paste below is judged against a wiki page the
	// plug-in has seen rather than racing its decision worker.
	settle := func() {}

	switch system {
	case "none":
		// No protection installed.

	case "encrypt-all":
		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(i)
		}
		enc, err := cryptoall.New(key, webapp.ServiceDocs)
		if err != nil {
			return row, err
		}
		b.OnTabOpen(func(tab *browser.Tab) { tab.RegisterXHRHook(enc.Hook) })

	case "browserflow":
		tracker, err := disclosure.NewTracker(params)
		if err != nil {
			return row, err
		}
		registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
		for _, svc := range []struct {
			name   string
			lp, lc tdm.TagSet
		}{
			{name: webapp.ServiceWiki, lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
			{name: webapp.ServiceITool, lp: tdm.NewTagSet("ti"), lc: tdm.NewTagSet("ti")},
			{name: webapp.ServiceDocs, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
			{name: webapp.ServiceNotes, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
		} {
			if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
				return row, err
			}
		}
		engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
		if err != nil {
			return row, err
		}
		plugin, err := intercept.New(intercept.Config{Engine: engine, User: "expt"})
		if err != nil {
			return row, err
		}
		defer plugin.Shutdown()
		plugin.AttachToBrowser(b)
		settle = plugin.Flush
	}

	// Workflow: read the wiki page, then edit the external doc.
	wikiTab, err := b.OpenTab(srv.URL + "/wiki/secret")
	if err != nil {
		return row, err
	}
	docsTab, err := b.OpenTab(srv.URL + "/docs/notes")
	if err != nil {
		return row, err
	}
	ed, err := webapp.AttachDocsEditor(docsTab)
	if err != nil {
		return row, err
	}

	// 1. Type fresh public text.
	if err := ed.AppendParagraph(public); err != nil {
		return row, fmt.Errorf("public append: %w", err)
	}
	// 2. Paste the confidential wiki paragraph; a blocked upload counts as
	// protection.
	settle()
	wikiTab.CopyText(wikiTab.Document().Root().ByID("par-0"))
	_ = ed.PasteAppend() // error (blocked) is a valid protection outcome

	// Score confidentiality: is the secret stored in plaintext?
	plaintextLeak := false
	for _, p := range server.Doc("notes") {
		if strings.Contains(p, secret[:40]) {
			plaintextLeak = true
		}
	}
	row.SensitiveProtected = !plaintextLeak

	// Score functionality: server-side search over the user's public text.
	word := strings.ToLower(strings.Fields(public)[3])
	resp, err := http.Get(srv.URL + "/docs/notes/search?q=" + word)
	if err != nil {
		return row, err
	}
	defer resp.Body.Close()
	var hits []int
	if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
		return row, err
	}
	row.PublicSearchable = len(hits) > 0
	return row, nil
}

// Format renders the scorecard.
func (r UsabilityResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Usability comparison: confidentiality vs preserved service functionality (§2.2)\n")
	fmt.Fprintf(&sb, "%-14s %20s %18s\n", "system", "sensitive-protected", "public-searchable")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %20s %18s\n", row.System, yesNo(row.SensitiveProtected), yesNo(row.PublicSearchable))
	}
	return sb.String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
