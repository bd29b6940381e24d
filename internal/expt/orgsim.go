package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// The organisation simulation is an end-to-end effectiveness experiment
// with exact ground truth: simulated employees create and copy text
// between the three services of §2, and every copy event is labelled a
// priori as a policy violation or not. BrowserFlow's warnings are then
// scored as precision/recall against that label — the overall-system
// complement to the per-figure experiments.

// OrgSimConfig controls the simulation.
type OrgSimConfig struct {
	// Seed drives all randomness.
	Seed int64

	// Events is the number of user actions to simulate.
	Events int

	// CopyFraction is the probability that an event is a copy (vs fresh
	// text creation).
	CopyFraction float64

	// RephraseFraction is the probability that a copy is fully rephrased
	// (escaping fingerprint tracking — the known false-negative class).
	RephraseFraction float64

	// SuppressFraction is the probability that a user who gets a warning
	// deliberately declassifies (suppresses the violating tags) — the
	// accountable-override workflow of §3.1.
	SuppressFraction float64
}

// DefaultOrgSimConfig returns a laptop-scale simulation.
func DefaultOrgSimConfig() OrgSimConfig {
	return OrgSimConfig{
		Seed:             1,
		Events:           400,
		CopyFraction:     0.4,
		RephraseFraction: 0.15,
		SuppressFraction: 0.2,
	}
}

// OrgSimResult scores BrowserFlow against the simulation's ground truth.
type OrgSimResult struct {
	// Events is the number of actions simulated.
	Events int

	// Copies is the number of copy events.
	Copies int

	// TruthViolations is the number of copies that violated policy
	// (tagged source, under-privileged destination, content preserved).
	TruthViolations int

	// RephrasedViolations is the subset whose content was fully rephrased
	// (undetectable by design — §4.4).
	RephrasedViolations int

	// TruePositives / FalsePositives / FalseNegatives score the verdicts.
	TruePositives  int
	FalsePositives int
	FalseNegatives int

	// Suppressions counts deliberate user declassifications after a
	// warning; AuditEntries is the resulting audit-trail size (every
	// suppression must be accounted for).
	Suppressions int
	AuditEntries int
}

// Precision returns TP / (TP + FP).
func (r OrgSimResult) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall returns TP / (TP + FN) over all ground-truth violations,
// including the rephrased ones fingerprints cannot see.
func (r OrgSimResult) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// DetectableRecall excludes the rephrased copies — the recall over
// violations fingerprint tracking can in principle detect.
func (r OrgSimResult) DetectableRecall() float64 {
	detectable := r.TruePositives + r.FalseNegatives - r.RephrasedViolations
	if detectable <= 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(detectable)
}

// simParagraph is one live paragraph in the simulated organisation.
type simParagraph struct {
	seg     segment.ID
	service string
	text    string

	// sensitiveFrom is the originating tagged service if the content (or
	// its lineage) is confidential, "" otherwise.
	sensitiveFrom string
}

// RunOrgSim runs the simulation.
func RunOrgSim(cfg OrgSimConfig, params disclosure.Params) (OrgSimResult, error) {
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return OrgSimResult{}, err
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	services := []struct {
		name   string
		tag    tdm.Tag
		public bool
	}{
		{name: "itool", tag: "ti"},
		{name: "wiki", tag: "tw"},
		{name: "docs", public: true},
	}
	privileged := map[string]map[string]bool{ // dest -> source tags allowed
		"itool": {"ti": true},
		"wiki":  {"tw": true},
		"docs":  {},
	}
	for _, svc := range services {
		lp, lc := tdm.NewTagSet(), tdm.NewTagSet()
		if !svc.public {
			lp.Add(svc.tag)
			lc.Add(svc.tag)
		}
		if err := registry.RegisterService(svc.name, lp, lc); err != nil {
			return OrgSimResult{}, err
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		return OrgSimResult{}, err
	}

	gen := dataset.NewTextGen(cfg.Seed+31, 2500)
	rng := rand.New(rand.NewSource(cfg.Seed * 61))
	var (
		result OrgSimResult
		pars   []simParagraph
	)

	observe := func(p simParagraph) (policy.Verdict, error) {
		return engine.ObserveEdit(p.seg, p.service, p.text)
	}

	for ev := 0; ev < cfg.Events; ev++ {
		result.Events++
		svc := services[rng.Intn(len(services))]

		if len(pars) == 0 || rng.Float64() >= cfg.CopyFraction {
			// Fresh text created in svc.
			p := simParagraph{
				seg:     segment.ID(fmt.Sprintf("%s/doc%d#p0", svc.name, ev)),
				service: svc.name,
				text:    gen.Paragraph(4, 7),
			}
			if !svc.public {
				p.sensitiveFrom = svc.name
			}
			if _, err := observe(p); err != nil {
				return OrgSimResult{}, err
			}
			pars = append(pars, p)
			continue
		}

		// Copy an existing paragraph into svc.
		src := pars[rng.Intn(len(pars))]
		result.Copies++
		text := src.text
		rephrased := false
		switch r := rng.Float64(); {
		case r < cfg.RephraseFraction:
			text = gen.Rephrase(text)
			rephrased = true
		case r < cfg.RephraseFraction+0.3:
			text = gen.LightEdit(text, 0.05)
		}
		dst := simParagraph{
			seg:     segment.ID(fmt.Sprintf("%s/doc%d#p0", svc.name, ev)),
			service: svc.name,
			text:    text,
		}
		// Lineage: a faithful copy keeps the *original* source's
		// sensitivity — public text pasted into a tagged service stays
		// public, because its authoritative origin is the public service
		// (Figure 3, step 3). A rephrased copy is new text: if it is born
		// in a tagged service it becomes that service's data (default
		// confidentiality assignment, §3.1).
		if !rephrased {
			dst.sensitiveFrom = src.sensitiveFrom
		} else if !svc.public {
			dst.sensitiveFrom = svc.name
		}

		// Ground truth: the copy violates policy when confidential content
		// lands in a service not privileged for its source tag. Rephrased
		// copies still count (the expert sees the concept) — they are the
		// built-in false negatives.
		truthViolation := false
		if src.sensitiveFrom != "" {
			srcTag := string(services[indexOfService(services, src.sensitiveFrom)].tag)
			if !privileged[svc.name][srcTag] {
				truthViolation = true
			}
		}
		if truthViolation {
			result.TruthViolations++
			if rephrased {
				result.RephrasedViolations++
			}
		}

		verdict, err := observe(dst)
		if err != nil {
			return OrgSimResult{}, err
		}
		detected := verdict.Violation()
		switch {
		case detected && truthViolation:
			result.TruePositives++
		case detected && !truthViolation:
			result.FalsePositives++
		case !detected && truthViolation:
			result.FalseNegatives++
		}

		// §3.1 declassification workflow: some warned users deliberately
		// suppress the violating tags (audited) so the copy may stay.
		if detected && rng.Float64() < cfg.SuppressFraction {
			user := fmt.Sprintf("user%d", rng.Intn(20))
			for _, tag := range verdict.Violating {
				if err := registry.SuppressTag(user, dst.seg, tag, "orgsim declassification"); err != nil {
					return OrgSimResult{}, err
				}
			}
			result.Suppressions++
			// After suppression the segment must be releasable to its own
			// service again.
			after, err := engine.CheckUpload(dst.seg, svc.name)
			if err != nil {
				return OrgSimResult{}, err
			}
			if after.Violation() {
				return OrgSimResult{}, fmt.Errorf("suppression did not clear violation for %s", dst.seg)
			}
		}
		pars = append(pars, dst)
	}
	result.AuditEntries = registry.Audit().Len()
	return result, nil
}

func indexOfService(services []struct {
	name   string
	tag    tdm.Tag
	public bool
}, name string) int {
	for i, s := range services {
		if s.name == name {
			return i
		}
	}
	return 0
}

// OrgSimSweep aggregates the simulation across seeds, showing the headline
// precision/recall numbers are not a single-seed artefact.
type OrgSimSweep struct {
	Runs []OrgSimResult
}

// RunOrgSimSweep runs the simulation for seeds base..base+n-1.
func RunOrgSimSweep(cfg OrgSimConfig, params disclosure.Params, n int) (OrgSimSweep, error) {
	if n < 1 {
		n = 1
	}
	var sweep OrgSimSweep
	base := cfg.Seed
	for i := 0; i < n; i++ {
		cfg.Seed = base + int64(i)
		r, err := RunOrgSim(cfg, params)
		if err != nil {
			return OrgSimSweep{}, err
		}
		sweep.Runs = append(sweep.Runs, r)
	}
	return sweep, nil
}

// MinPrecision returns the lowest precision across runs.
func (s OrgSimSweep) MinPrecision() float64 {
	min := 1.0
	for _, r := range s.Runs {
		if p := r.Precision(); p < min {
			min = p
		}
	}
	return min
}

// MinDetectableRecall returns the lowest detectable recall across runs.
func (s OrgSimSweep) MinDetectableRecall() float64 {
	min := 1.0
	for _, r := range s.Runs {
		if dr := r.DetectableRecall(); dr < min {
			min = dr
		}
	}
	return min
}

// Format renders the sweep.
func (s OrgSimSweep) Format() string {
	var sb strings.Builder
	sb.WriteString("Organisation simulation sweep\n")
	fmt.Fprintf(&sb, "%4s %8s %8s %10s %18s\n", "run", "copies", "truth", "precision", "detectable-recall")
	for i, r := range s.Runs {
		fmt.Fprintf(&sb, "%4d %8d %8d %10.3f %18.3f\n", i, r.Copies, r.TruthViolations, r.Precision(), r.DetectableRecall())
	}
	fmt.Fprintf(&sb, "min precision=%.3f min detectable-recall=%.3f over %d seeds\n",
		s.MinPrecision(), s.MinDetectableRecall(), len(s.Runs))
	return sb.String()
}

// Format renders the scorecard.
func (r OrgSimResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Organisation simulation: end-to-end detection vs ground truth\n")
	fmt.Fprintf(&sb, "events=%d copies=%d ground-truth violations=%d (rephrased %d)\n",
		r.Events, r.Copies, r.TruthViolations, r.RephrasedViolations)
	fmt.Fprintf(&sb, "TP=%d FP=%d FN=%d\n", r.TruePositives, r.FalsePositives, r.FalseNegatives)
	fmt.Fprintf(&sb, "precision=%.3f recall=%.3f detectable-recall=%.3f\n",
		r.Precision(), r.Recall(), r.DetectableRecall())
	fmt.Fprintf(&sb, "user declassifications=%d (audit entries=%d)\n", r.Suppressions, r.AuditEntries)
	return sb.String()
}
