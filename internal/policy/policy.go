// Package policy combines the disclosure tracker (§4) with the Text
// Disclosure Model (§3) into the two modules of Figure 1:
//
//   - the policy *lookup* module extracts the security label associated with
//     a text segment that is about to be uploaded, using imprecise data flow
//     tracking to discover which origins the text discloses; and
//   - the policy *enforcement* module compares that label with the
//     destination service's privilege label and decides whether the upload
//     may proceed.
//
// BrowserFlow is advisory by design — most data disclosure happens by
// accident, so users keep the final decision — but the engine also supports
// enforcing and encrypting modes for stricter deployments.
package policy

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// Decision is the outcome of an enforcement check.
type Decision int

const (
	// DecisionAllow permits the upload unchanged.
	DecisionAllow Decision = iota + 1

	// DecisionWarn permits the upload but flags the violation to the user
	// (advisory mode: red paragraph background in the paper's plug-in).
	DecisionWarn

	// DecisionBlock prevents the upload.
	DecisionBlock

	// DecisionEncrypt permits the upload after encrypting the payload so
	// the untrusted service never sees plaintext.
	DecisionEncrypt
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionAllow:
		return "allow"
	case DecisionWarn:
		return "warn"
	case DecisionBlock:
		return "block"
	case DecisionEncrypt:
		return "encrypt"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// ParseDecision converts a decision's string form back to a Decision; it
// is used by remote clients deserialising verdicts.
func ParseDecision(s string) (Decision, error) {
	switch s {
	case "allow":
		return DecisionAllow, nil
	case "warn":
		return DecisionWarn, nil
	case "block":
		return DecisionBlock, nil
	case "encrypt":
		return DecisionEncrypt, nil
	default:
		return 0, fmt.Errorf("policy: unknown decision %q", s)
	}
}

// Mode selects what the enforcement module does on a violation.
type Mode int

const (
	// ModeAdvisory warns but never blocks (the paper's default posture).
	ModeAdvisory Mode = iota + 1

	// ModeEnforcing blocks violating uploads.
	ModeEnforcing

	// ModeEncrypting encrypts violating uploads before transmission.
	ModeEncrypting
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAdvisory:
		return "advisory"
	case ModeEnforcing:
		return "enforcing"
	case ModeEncrypting:
		return "encrypting"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Verdict is the result of one policy evaluation.
type Verdict struct {
	// Decision is what the enforcement module chose.
	Decision Decision

	// Seg is the evaluated segment (empty for ad-hoc text checks).
	Seg segment.ID

	// Service is the destination service.
	Service string

	// Violating lists the tags that are not covered by the destination's
	// privilege label (empty when Decision is Allow).
	Violating []tdm.Tag

	// Sources are the origin segments the text was found to disclose.
	Sources []disclosure.Source

	// CacheHit reports whether the disclosure result came from the
	// decision cache, which answers only what Algorithm 1 would answer
	// now (see disclosure.Report.CacheHit). A routed observe at a
	// partition of several never hits: the cache there cannot see changes
	// homed elsewhere.
	CacheHit bool

	// Degraded reports that the verdict was NOT computed by an engine:
	// the shared tag service was unreachable and a failover layer
	// substituted its mode's fail-open (allow) or fail-closed (block)
	// default. Degraded verdicts carry no disclosure evidence.
	Degraded bool
}

// Violation reports whether the evaluation found a policy violation
// (regardless of the mode's chosen decision).
func (v Verdict) Violation() bool { return len(v.Violating) > 0 }

// Engine wires the tracker and the registry together. It is safe for
// concurrent use.
type Engine struct {
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	mode     Mode

	// journal, when set, receives every state mutation for crash-safe
	// durability (see Journal and SetJournal in journal.go). It lives in
	// an atomic box so replica promotion can install a journal on an
	// engine that is already serving reads without a data race.
	journal atomic.Pointer[journalBox]
}

// journalBox wraps the interface so a nil journal is representable
// inside atomic.Pointer.
type journalBox struct{ j Journal }

// NewEngine returns an Engine in the given mode. The registry must keep its
// per-segment state on the tracker's segment table
// (tdm.NewRegistry(tracker.Table(), …)).
func NewEngine(tracker *disclosure.Tracker, registry *tdm.Registry, mode Mode) (*Engine, error) {
	if tracker == nil || registry == nil {
		return nil, fmt.Errorf("policy: tracker and registry are required")
	}
	if tracker.Table() != registry.Table() {
		return nil, fmt.Errorf("policy: tracker and registry are on different segment tables")
	}
	switch mode {
	case ModeAdvisory, ModeEnforcing, ModeEncrypting:
	default:
		return nil, fmt.Errorf("policy: invalid mode %d", int(mode))
	}
	return &Engine{tracker: tracker, registry: registry, mode: mode}, nil
}

// Tracker returns the underlying disclosure tracker.
func (e *Engine) Tracker() *disclosure.Tracker { return e.tracker }

// Registry returns the underlying TDM registry.
func (e *Engine) Registry() *tdm.Registry { return e.registry }

// Mode returns the engine's enforcement mode.
func (e *Engine) Mode() Mode { return e.mode }

// ObserveEdit is the policy lookup path for a paragraph edit inside a
// service (a DOM mutation in the browser): it records the text, refreshes
// the segment's label from its current disclosure sources, and returns the
// verdict of uploading the text back to its *own* service — which flags the
// "red background" state while the user is still editing.
func (e *Engine) ObserveEdit(seg segment.ID, service, text string) (Verdict, error) {
	fp, err := e.tracker.Fingerprint(text)
	if err != nil {
		return Verdict{}, err
	}
	return e.ObserveEditFP(seg, service, fp)
}

// ObserveDocumentEdit records a whole-document observation (the second
// tracking granularity of §4.1).
func (e *Engine) ObserveDocumentEdit(doc segment.ID, service, text string) (Verdict, error) {
	fp, err := e.tracker.Fingerprint(text)
	if err != nil {
		return Verdict{}, err
	}
	return e.ObserveDocumentEditFP(doc, service, fp)
}

// ObserveEditFP is ObserveEdit for a fingerprint computed by the caller —
// remote (tag-server) clients keep text on-device and ship hashes only.
func (e *Engine) ObserveEditFP(seg segment.ID, service string, fp *fingerprint.Fingerprint) (Verdict, error) {
	return e.ObserveEditFPCtx(context.Background(), seg, service, fp)
}

// ObserveEditFPCtx is ObserveEditFP with a request context: when ctx
// carries a trace (internal/obs) the engine records an "engine.observe"
// span and the journal attributes the WAL append to the same trace.
func (e *Engine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (verdict Verdict, err error) {
	sp := obs.StartSpan(ctx, "engine.observe")
	if sp.Active() {
		sp.SetAttr("seg", string(seg))
		sp.SetAttr("hashes", strconv.Itoa(len(fp.Hashes())))
		defer func() { sp.End(err) }()
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	if err := e.registry.ObserveSegment(seg, service); err != nil {
		return Verdict{}, err
	}
	report, err := e.tracker.ObserveParagraphFP(seg, fp)
	if err != nil {
		return Verdict{}, err
	}
	e.registry.RefreshImplicit(seg, report.SourceSegs())
	if err := e.journalObserve(ctx, seg, service, segment.GranularityParagraph, fp.Hashes()); err != nil {
		return Verdict{}, err
	}
	return e.verdictFor(seg, service, report.Sources, report.CacheHit)
}

// ObserveDocumentEditFP is ObserveDocumentEdit for a caller-computed
// fingerprint.
func (e *Engine) ObserveDocumentEditFP(doc segment.ID, service string, fp *fingerprint.Fingerprint) (Verdict, error) {
	return e.ObserveDocumentEditFPCtx(context.Background(), doc, service, fp)
}

// ObserveDocumentEditFPCtx is ObserveDocumentEditFP with a request
// context carrying the trace, as in ObserveEditFPCtx.
func (e *Engine) ObserveDocumentEditFPCtx(ctx context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (verdict Verdict, err error) {
	sp := obs.StartSpan(ctx, "engine.observe_document")
	if sp.Active() {
		sp.SetAttr("seg", string(doc))
		sp.SetAttr("hashes", strconv.Itoa(len(fp.Hashes())))
		defer func() { sp.End(err) }()
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	if err := e.registry.ObserveSegment(doc, service); err != nil {
		return Verdict{}, err
	}
	report, err := e.tracker.ObserveDocumentFP(doc, fp)
	if err != nil {
		return Verdict{}, err
	}
	e.registry.RefreshImplicit(doc, report.SourceSegs())
	if err := e.journalObserve(ctx, doc, service, segment.GranularityDocument, fp.Hashes()); err != nil {
		return Verdict{}, err
	}
	return e.verdictFor(doc, service, report.Sources, report.CacheHit)
}

// ObserveBatchFP is ObserveEditFP for a flush of coalesced edits: one
// registry/tracker pass per item with the tracker's batch fast path, one
// verdict per item (verdicts[i] corresponds to items[i]). Items are
// applied in order, exactly as the equivalent sequence of singular
// Observe*EditFP calls would be.
func (e *Engine) ObserveBatchFP(service string, items []disclosure.BatchObservation) ([]Verdict, error) {
	return e.ObserveBatchFPCtx(context.Background(), service, items)
}

// ObserveBatchFPCtx is ObserveBatchFP with a request context: when ctx
// carries a trace the engine records an "engine.observe_batch" span and
// the journal attributes the batched WAL append to the same trace.
func (e *Engine) ObserveBatchFPCtx(ctx context.Context, service string, items []disclosure.BatchObservation) (verdicts []Verdict, err error) {
	if len(items) == 0 {
		return nil, nil
	}
	sp := obs.StartSpan(ctx, "engine.observe_batch")
	if sp.Active() {
		sp.SetAttr("items", strconv.Itoa(len(items)))
		defer func() { sp.End(err) }()
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	journal := e.journalRef()
	if journal != nil {
		// Normalise text items to caller-computed fingerprints so the
		// journal records hashes (never text — the same privacy posture
		// as the wire protocol, §4.4).
		for i := range items {
			if items[i].FP == nil {
				fp, err := e.tracker.Fingerprint(items[i].Text)
				if err != nil {
					return nil, err
				}
				items[i].FP = fp
				items[i].Text = ""
			}
		}
	}
	for _, item := range items {
		if err := e.registry.ObserveSegment(item.Seg, service); err != nil {
			return nil, err
		}
	}
	reports, err := e.tracker.ObserveBatch(items)
	if err != nil {
		return nil, err
	}
	// Each item's label is refreshed and judged in turn, so a segment
	// edited twice in one batch is judged per edit, as the singular calls
	// would judge it. Both run before the journal append, as on the
	// singular paths: a failed append returns an error, yet the tracker
	// holds the batch, and so must the labels.
	verdicts = make([]Verdict, len(reports))
	for i, report := range reports {
		e.registry.RefreshImplicit(report.Seg, report.SourceSegs())
		v, err := e.verdictFor(report.Seg, service, report.Sources, report.CacheHit)
		if err != nil {
			return nil, err
		}
		verdicts[i] = v
	}
	if journal != nil {
		if err := journal.ObserveBatch(ctx, service, items); err != nil {
			return nil, journalErr(err)
		}
	}
	return verdicts, nil
}

// CheckFP is CheckText for a caller-computed fingerprint.
func (e *Engine) CheckFP(fp *fingerprint.Fingerprint, destService string) (Verdict, error) {
	sources := e.tracker.QueryParagraphFP(fp, "")
	return e.checkSources(sources, destService)
}

// checkSources evaluates ad-hoc content given its disclosure sources: its
// label is the union of their explicit tags.
func (e *Engine) checkSources(sources []disclosure.Source, destService string) (Verdict, error) {
	ok, violating, err := e.registry.CheckSources(len(sources), func(i int) segment.ID { return sources[i].Seg }, destService)
	return e.adHocVerdict(ok, violating, err, sources, destService)
}

// adHocVerdict is the verdict of an ad-hoc release check that answered
// (ok, violating, err).
func (e *Engine) adHocVerdict(ok bool, violating []tdm.Tag, err error, sources []disclosure.Source, destService string) (Verdict, error) {
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Service: destService, Sources: sources}
	if ok {
		v.Decision = DecisionAllow
		return v, nil
	}
	v.Violating = violating
	v.Decision = e.violationDecision()
	return v, nil
}

// CheckUpload evaluates releasing an already tracked segment to a
// destination service — the enforcement path for intercepted requests.
func (e *Engine) CheckUpload(seg segment.ID, destService string) (Verdict, error) {
	return e.verdictFor(seg, destService, nil, false)
}

// CheckText evaluates ad-hoc text (e.g. a form field value) against a
// destination service without recording it as an observation. The text's
// label is the union of the explicit tags of the origins it discloses —
// exactly the implicit label a new destination segment would receive.
func (e *Engine) CheckText(text, destService string) (Verdict, error) {
	sources, err := e.tracker.QueryParagraph(text, "")
	if err != nil {
		return Verdict{}, err
	}
	return e.checkSources(sources, destService)
}

// Override records a user explicitly permitting a flagged upload
// (accountable declassification at the decision point). It returns the
// allow verdict.
func (e *Engine) Override(user string, seg segment.ID, destService, justification string) Verdict {
	if end := e.begin(); end != nil {
		defer end()
	}
	entry := e.registry.Audit().Append(audit.Entry{
		User:          user,
		Action:        audit.ActionOverride,
		Segment:       string(seg),
		Service:       destService,
		Justification: justification,
	})
	if j := e.journalRef(); j != nil {
		// Best effort: Override's signature carries no error. A failed
		// append leaves the entry in memory, and the next checkpoint
		// (which captures the audit log wholesale) persists it.
		_ = j.AuditAppend([]audit.Entry{entry})
	}
	return Verdict{Decision: DecisionAllow, Seg: seg, Service: destService}
}

func (e *Engine) verdictFor(seg segment.ID, service string, sources []disclosure.Source, cacheHit bool) (Verdict, error) {
	ok, violating, err := e.registry.CheckRelease(seg, service)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Seg:      seg,
		Service:  service,
		Sources:  sources,
		CacheHit: cacheHit,
	}
	if ok {
		v.Decision = DecisionAllow
		return v, nil
	}
	v.Violating = violating
	v.Decision = e.violationDecision()
	return v, nil
}

func (e *Engine) violationDecision() Decision {
	switch e.mode {
	case ModeEnforcing:
		return DecisionBlock
	case ModeEncrypting:
		return DecisionEncrypt
	default:
		return DecisionWarn
	}
}
