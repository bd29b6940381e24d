package expt

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strings"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/dlpmon"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

// The baseline comparison backs §2.2's qualitative argument with
// measurements: a network-level DLP monitor inspects the *wire bytes* of
// each exfiltration scenario, while BrowserFlow inspects the *plaintext
// the user sees* (DOM mutations / pre-encoding request text). Both get the
// same fingerprint parameters and the same sensitive corpus.

// BaselineScenario is one exfiltration path.
type BaselineScenario struct {
	// Name describes the scenario.
	Name string

	// BrowserFlow reports whether BrowserFlow detected the disclosure.
	BrowserFlow bool

	// NetworkDLP reports whether the network monitor detected it.
	NetworkDLP bool
}

// BaselineResult is the comparison table.
type BaselineResult struct {
	Scenarios []BaselineScenario
}

// RunBaselineComparison replays three exfiltration scenarios:
//
//	S1 plaintext HTML form post (wiki)     — visible to both;
//	S2 JSON AJAX mutation (docs)           — network DLP needs a JSON
//	                                          decoder (ours has one);
//	S3 obfuscated envelope (notes)         — network DLP is blind without
//	                                          per-service reverse
//	                                          engineering; BrowserFlow sees
//	                                          the DOM plaintext.
func RunBaselineComparison(scale Scale, params disclosure.Params) (BaselineResult, error) {
	gen := dataset.NewTextGen(scale.Seed+2222, 2000)
	secret := gen.Paragraph(8, 10)

	// BrowserFlow: tracker + engine with the secret observed in the wiki.
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return BaselineResult{}, err
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range []struct {
		name   string
		lp, lc tdm.TagSet
	}{
		{name: webapp.ServiceWiki, lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
		{name: webapp.ServiceDocs, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
		{name: webapp.ServiceNotes, lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			return BaselineResult{}, err
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		return BaselineResult{}, err
	}
	if _, err := engine.ObserveEdit("wiki/secret#p0", webapp.ServiceWiki, secret); err != nil {
		return BaselineResult{}, err
	}

	// Network DLP: same corpus, default decoders (form + JSON).
	monitor, err := dlpmon.New(dlpmon.Config{
		Fingerprint: params.Fingerprint,
		Threshold:   params.Tpar,
	})
	if err != nil {
		return BaselineResult{}, err
	}
	if err := monitor.AddSensitive("wiki-secret", secret); err != nil {
		return BaselineResult{}, err
	}

	// BrowserFlow's view is the plaintext in every scenario (DOM text or
	// pre-encoding request text).
	bfDetects := func(dest string) (bool, error) {
		v, err := engine.CheckText(secret, dest)
		if err != nil {
			return false, err
		}
		return v.Violation(), nil
	}

	var result BaselineResult

	// S1: plaintext form post.
	bf, err := bfDetects(webapp.ServiceDocs)
	if err != nil {
		return BaselineResult{}, err
	}
	formBody := url.Values{"content": {secret}, "csrf": {"tok"}}.Encode()
	v1, err := monitor.InspectBody("application/x-www-form-urlencoded", []byte(formBody))
	if err != nil {
		return BaselineResult{}, err
	}
	result.Scenarios = append(result.Scenarios, BaselineScenario{
		Name: "S1 plaintext form post", BrowserFlow: bf, NetworkDLP: v1.Blocked(),
	})

	// S2: JSON AJAX mutation (docs wire format).
	jsonBody, err := json.Marshal(webapp.MutateRequest{Op: "insert", Par: 0, Text: secret})
	if err != nil {
		return BaselineResult{}, err
	}
	v2, err := monitor.InspectBody("application/json", jsonBody)
	if err != nil {
		return BaselineResult{}, err
	}
	result.Scenarios = append(result.Scenarios, BaselineScenario{
		Name: "S2 JSON AJAX mutation", BrowserFlow: bf, NetworkDLP: v2.Blocked(),
	})

	// S3: obfuscated envelope (notes wire format).
	payload, err := webapp.EncodeNotesPayload(webapp.NotesPayload{Paragraphs: []string{secret}})
	if err != nil {
		return BaselineResult{}, err
	}
	envBody := url.Values{"payload": {payload}}.Encode()
	v3, err := monitor.InspectBody("application/x-www-form-urlencoded", []byte(envBody))
	if err != nil {
		return BaselineResult{}, err
	}
	bf3, err := bfDetects(webapp.ServiceNotes)
	if err != nil {
		return BaselineResult{}, err
	}
	result.Scenarios = append(result.Scenarios, BaselineScenario{
		Name: "S3 obfuscated envelope", BrowserFlow: bf3, NetworkDLP: v3.Blocked(),
	})

	return result, nil
}

// Format renders the comparison table.
func (r BaselineResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Baseline comparison: BrowserFlow vs network-level DLP (§2.2)\n")
	fmt.Fprintf(&sb, "%-26s %12s %12s\n", "scenario", "BrowserFlow", "NetworkDLP")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&sb, "%-26s %12s %12s\n", s.Name, detected(s.BrowserFlow), detected(s.NetworkDLP))
	}
	return sb.String()
}

func detected(b bool) string {
	if b {
		return "detected"
	}
	return "missed"
}
