// Package browserflow is a Go implementation of BrowserFlow (Papagiannis
// et al., ACM Middleware 2016): imprecise data flow tracking to prevent
// accidental data disclosure across cloud services.
//
// Instead of attaching taint labels to bytes, BrowserFlow infers data flow
// from text similarity: every text segment is fingerprinted with the
// winnowing algorithm, and a segment "discloses" a source when enough of
// the source's fingerprint appears in it. A decentralised label model (the
// Text Disclosure Model, TDM) turns those flows into policy: services carry
// privilege and confidentiality labels, segments carry tags, and a segment
// may be released to a service only when its tags are covered by the
// service's privilege label. Users may suppress tags (audited
// declassification) or allocate custom tags to restrict flows further.
//
// The Middleware type bundles the disclosure tracker, the TDM registry and
// the policy engine behind one façade:
//
//	mw, err := browserflow.New(browserflow.DefaultConfig(),
//	    browserflow.Service{Name: "wiki", Privilege: []browserflow.Tag{"tw"}, Confidentiality: []browserflow.Tag{"tw"}},
//	    browserflow.Service{Name: "docs"},
//	)
//	verdict, err := mw.ObserveParagraph("wiki", "wiki/guide#p0", text)
//	verdict, err = mw.CheckText(pastedText, "docs") // Warn/Block/Encrypt on violation
//
// Sub-systems are available for advanced use through the returned
// Middleware's Tracker, Registry and Engine accessors.
package browserflow

import (
	"fmt"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/exactmatch"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/policyfile"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// Re-exported core types. The aliases keep one canonical definition in the
// internal packages while giving users a single import.
type (
	// Tag is a unique human-readable policy tag (§3.1).
	Tag = tdm.Tag

	// SegmentID identifies a tracked text segment (paragraph or document).
	SegmentID = segment.ID

	// Verdict is a policy decision with its violating tags and disclosure
	// sources.
	Verdict = policy.Verdict

	// Decision is the enforcement outcome: Allow, Warn, Block or Encrypt.
	Decision = policy.Decision

	// Mode selects what a violation produces.
	Mode = policy.Mode

	// Source is one origin segment a text was found to disclose.
	Source = disclosure.Source

	// Label is a segment's TDM label (explicit, implicit and suppressed
	// tags).
	Label = tdm.Label

	// AuditEntry is one audit-trail record.
	AuditEntry = audit.Entry

	// Span is a half-open byte range of an observed text, used for passage
	// attribution.
	Span = disclosure.Span

	// SecretMatch is one exact-match secret detection.
	SecretMatch = exactmatch.Match
)

// Re-exported decision and mode constants.
const (
	DecisionAllow   = policy.DecisionAllow
	DecisionWarn    = policy.DecisionWarn
	DecisionBlock   = policy.DecisionBlock
	DecisionEncrypt = policy.DecisionEncrypt

	ModeAdvisory   = policy.ModeAdvisory
	ModeEnforcing  = policy.ModeEnforcing
	ModeEncrypting = policy.ModeEncrypting
)

// Config holds the middleware parameters. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	// NGram is the fingerprint n-gram length in normalised characters
	// (paper: 15).
	NGram int

	// Window is the winnowing window in hashes (paper: 30).
	Window int

	// Tpar is the default paragraph disclosure threshold (paper: 0.5).
	Tpar float64

	// Tdoc is the default document disclosure threshold.
	Tdoc float64

	// Mode is the enforcement mode on violations (default advisory, the
	// paper's posture).
	Mode Mode
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		NGram:  15,
		Window: 30,
		Tpar:   0.5,
		Tdoc:   0.5,
		Mode:   ModeAdvisory,
	}
}

// Service declares one cloud service and its TDM labels.
type Service struct {
	// Name identifies the service in policy decisions.
	Name string

	// Privilege is Lp: the tags the service is trusted to receive.
	Privilege []Tag

	// Confidentiality is Lc: the default tags of text created in the
	// service.
	Confidentiality []Tag
}

// Middleware is a complete BrowserFlow instance: disclosure tracker, TDM
// registry and policy engine. It is safe for concurrent use.
type Middleware struct {
	cfg      Config
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	engine   *policy.Engine
	secrets  *exactmatch.Store

	// compiled is the policy artefact this instance was built from, when
	// constructed via NewFromPolicyFile: the source of the policy hash. nil
	// for programmatic construction.
	compiled *policyfile.Compiled
}

// New builds a Middleware with the given services registered.
func New(cfg Config, services ...Service) (*Middleware, error) {
	params := disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: cfg.NGram, Window: cfg.Window},
		Tpar:        cfg.Tpar,
		Tdoc:        cfg.Tdoc,
	}
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return nil, fmt.Errorf("browserflow: %w", err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range services {
		if err := registry.RegisterService(svc.Name, tdm.NewTagSet(svc.Privilege...), tdm.NewTagSet(svc.Confidentiality...)); err != nil {
			return nil, fmt.Errorf("browserflow: %w", err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("browserflow: %w", err)
	}
	secrets, err := exactmatch.NewStore()
	if err != nil {
		return nil, fmt.Errorf("browserflow: %w", err)
	}
	return &Middleware{
		cfg:      cfg,
		tracker:  tracker,
		registry: registry,
		engine:   engine,
		secrets:  secrets,
	}, nil
}

// NewFromPolicyFile builds a Middleware from an administrator-authored
// policy document (see internal/policyfile for the JSON schema): service
// classes, propagation rules, enforcement mode, thresholds and
// exact-match secrets. The policy is compiled — class inheritance and
// propagation flattened into per-service labels — and the services are
// registered with those labels.
func NewFromPolicyFile(path string) (*Middleware, error) {
	pf, err := policyfile.Load(path)
	if err != nil {
		return nil, err
	}
	compiled, err := policyfile.Compile(pf)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.Mode = pf.PolicyMode()
	cfg.Tpar = pf.Tpar
	cfg.Tdoc = pf.Tdoc
	services := make([]Service, 0, len(compiled.Services))
	for _, svc := range compiled.Services {
		services = append(services, Service{
			Name:            svc.Name,
			Privilege:       svc.Privilege,
			Confidentiality: svc.Confidentiality,
		})
	}
	mw, err := New(cfg, services...)
	if err != nil {
		return nil, err
	}
	mw.compiled = compiled
	for _, s := range pf.Secrets {
		if err := mw.RegisterSecret(s.Name, s.Value); err != nil {
			return nil, err
		}
	}
	return mw, nil
}

// Config returns the middleware configuration.
func (m *Middleware) Config() Config { return m.cfg }

// Tracker exposes the disclosure tracker for advanced use.
func (m *Middleware) Tracker() *disclosure.Tracker { return m.tracker }

// Registry exposes the TDM registry for advanced use.
func (m *Middleware) Registry() *tdm.Registry { return m.registry }

// Engine exposes the policy engine for advanced use.
func (m *Middleware) Engine() *policy.Engine { return m.engine }

// RegisterService adds a service after construction.
func (m *Middleware) RegisterService(svc Service) error {
	return m.registry.RegisterService(svc.Name, tdm.NewTagSet(svc.Privilege...), tdm.NewTagSet(svc.Confidentiality...))
}

// ObserveParagraph records the current text of a paragraph inside a
// service (the per-keystroke lookup path) and returns the verdict of the
// text living in that service — DecisionWarn (or Block/Encrypt by mode)
// while it discloses data the service may not hold.
func (m *Middleware) ObserveParagraph(service string, seg SegmentID, text string) (Verdict, error) {
	return m.engine.ObserveEdit(seg, service, text)
}

// ObserveDocument records a whole document (the second tracking
// granularity of §4.1).
func (m *Middleware) ObserveDocument(service string, doc SegmentID, text string) (Verdict, error) {
	return m.engine.ObserveDocumentEdit(doc, service, text)
}

// CheckUpload evaluates releasing a tracked segment to a destination
// service — the enforcement path for intercepted requests.
func (m *Middleware) CheckUpload(seg SegmentID, destService string) (Verdict, error) {
	return m.engine.CheckUpload(seg, destService)
}

// CheckText evaluates ad-hoc text (a form field, a request body) against a
// destination service without recording it.
func (m *Middleware) CheckText(text, destService string) (Verdict, error) {
	return m.engine.CheckText(text, destService)
}

// Suppress declassifies a tag on a segment on the user's behalf, recording
// the justification in the audit trail (§3.1).
func (m *Middleware) Suppress(user string, seg SegmentID, tag Tag, justification string) error {
	return m.registry.SuppressTag(user, seg, tag, justification)
}

// PolicyHash returns the compiled policy fingerprint when the middleware
// was built from a policy file, "" otherwise. Devices expose it (e.g. on
// /healthz) so policy drift across a fleet is visible.
func (m *Middleware) PolicyHash() string {
	if m.compiled == nil {
		return ""
	}
	return m.compiled.Hash()
}

// Override records a user explicitly permitting a flagged upload.
func (m *Middleware) Override(user string, seg SegmentID, destService, justification string) Verdict {
	return m.engine.Override(user, seg, destService, justification)
}

// AllocateTag reserves a custom tag owned by user.
func (m *Middleware) AllocateTag(user string, tag Tag) error {
	return m.registry.AllocateTag(user, tag)
}

// AddTagToSegment attaches an allocated custom tag to a segment; services
// already storing the segment automatically gain the tag in Lp (§3.1).
func (m *Middleware) AddTagToSegment(user string, seg SegmentID, tag Tag) error {
	return m.registry.AddTagToSegment(user, seg, tag)
}

// GrantTag lets a tag's owner add it to a service's privilege label.
func (m *Middleware) GrantTag(user, service string, tag Tag) error {
	return m.registry.GrantTag(user, service, tag)
}

// RevokeTag lets a tag's owner remove it from a service's privilege label.
func (m *Middleware) RevokeTag(user, service string, tag Tag) error {
	return m.registry.RevokeTag(user, service, tag)
}

// Label returns a copy of a segment's label, or nil if untracked.
func (m *Middleware) Label(seg SegmentID) *Label {
	return m.registry.Label(seg)
}

// AuditEntries returns the audit trail.
func (m *Middleware) AuditEntries() []AuditEntry {
	return m.registry.Audit().Entries()
}

// Similarity returns the pairwise disclosure D(a, b) in [0, 1]: the
// fraction of a's fingerprint found in b.
func (m *Middleware) Similarity(a, b string) (float64, error) {
	return m.tracker.Pairwise(a, b)
}

// Sources answers the information disclosure problem (§4) for text against
// everything observed so far, without recording the text.
func (m *Middleware) Sources(text string) ([]Source, error) {
	return m.tracker.QueryParagraph(text, "")
}

// RegisterSecret protects a short string (password, API key) by exact
// matching (§4.4's companion mechanism for sub-paragraph secrets).
func (m *Middleware) RegisterSecret(name, value string) error {
	return m.secrets.Register(name, value)
}

// ScanSecrets returns the registered secrets occurring verbatim in text.
func (m *Middleware) ScanSecrets(text string) []SecretMatch {
	return m.secrets.Scan(text)
}

// SecretStore exposes the underlying exact-match store, e.g. to wire it
// into the browser plug-in's Config.Secrets.
func (m *Middleware) SecretStore() *exactmatch.Store { return m.secrets }

// SetParagraphThreshold overrides the disclosure threshold of one
// paragraph segment (§4.2: thresholds are set "e.g. by the author of a
// document and paragraph" — 0 flags any leaked hash, 0.8 requires 80 % of
// the fingerprint).
func (m *Middleware) SetParagraphThreshold(seg SegmentID, threshold float64) {
	m.tracker.Paragraphs().SetThreshold(seg, threshold)
}

// Attribute returns the passages of text that disclose src — the exact
// byte ranges whose fingerprint hashes belong to src's authoritative
// fingerprint (§4.1). Use it to highlight the offending text to the user.
func (m *Middleware) Attribute(text string, src SegmentID) ([]Span, error) {
	return m.tracker.AttributeParagraph(text, src)
}

// Forget removes a paragraph segment from tracking.
func (m *Middleware) Forget(seg SegmentID) {
	m.tracker.Forget(seg, segment.GranularityParagraph)
}

// Stats summarises the fingerprint databases.
type Stats struct {
	// ParagraphSegments and DocumentSegments count tracked segments.
	ParagraphSegments int
	DocumentSegments  int

	// DistinctHashes counts distinct fingerprint hashes across both
	// granularities.
	DistinctHashes int

	// AuditEntries counts audit-trail records.
	AuditEntries int
}

// Stats returns current sizes.
func (m *Middleware) Stats() Stats {
	p := m.tracker.Paragraphs().Stats()
	d := m.tracker.Documents().Stats()
	return Stats{
		ParagraphSegments: p.Segments,
		DocumentSegments:  d.Segments,
		DistinctHashes:    p.DistinctHashes + d.DistinctHashes,
		AuditEntries:      m.registry.Audit().Len(),
	}
}

// Save persists the middleware state to path, atomically and durably, in
// the same image format the tag service checkpoints in. A non-empty
// passphrase encrypts the file at rest with AES-256-GCM (§4.4). Save may
// run beside observes: each fingerprint database is captured as one
// consistent cut.
func (m *Middleware) Save(path, passphrase string) error {
	blob, err := store.CaptureBytes(m.tracker, m.registry, 0, time.Now())
	if err != nil {
		return err
	}
	return store.SaveCheckpointBytes(wal.OSFS{}, path, blob, stateKey(passphrase))
}

// Load replaces the middleware state with one saved by Save. It must not
// run beside other calls on the same Middleware. On error the state is
// unchanged.
func (m *Middleware) Load(path, passphrase string) error {
	_, err := store.RestoreFile(wal.OSFS{}, path, stateKey(passphrase), m.tracker, m.registry)
	return err
}

// stateKey derives the at-rest key of a state file; an empty passphrase
// means plaintext.
func stateKey(passphrase string) []byte {
	if passphrase == "" {
		return nil
	}
	return store.DeriveKey(passphrase)
}
