// Package intercept implements the BrowserFlow plug-in (Figure 1, §5): it
// attaches to browser tabs, watches DOM mutations through mutation
// observers (§5.2), intercepts form submissions (§5.1) and asynchronous
// requests (§5.2), and drives the policy engine.
//
// Disclosure decisions run asynchronously to the user's typing on a
// dedicated worker goroutine, exactly like the paper's plug-in: the DOM
// mutation returns immediately, and the verdict later recolours the
// paragraph (red background on a violation) and is reported through the
// OnEvent callback. Outgoing requests, in contrast, are checked
// synchronously because they are the enforcement point.
package intercept

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/browser"
	"github.com/lsds/browserflow/internal/dom"
	"github.com/lsds/browserflow/internal/exactmatch"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

// EventKind classifies plug-in events.
type EventKind string

const (
	// EventEdit is an asynchronous disclosure decision for a paragraph
	// edit.
	EventEdit EventKind = "edit"

	// EventDoc is an asynchronous disclosure decision at whole-document
	// granularity (§4.1's second tracking granularity: it catches
	// cross-paragraph disclosure that no single paragraph triggers).
	EventDoc EventKind = "doc"

	// EventForm is a form-submission check.
	EventForm EventKind = "form"

	// EventXHR is an asynchronous-request check.
	EventXHR EventKind = "xhr"

	// EventSecret is an exact-match secret detection (§4.4's companion
	// system for short sensitive strings). Secret uploads are always
	// blocked, independent of the engine's mode.
	EventSecret EventKind = "secret"
)

// Event reports one plug-in decision.
type Event struct {
	Kind    EventKind
	Seg     segment.ID
	Service string
	Verdict policy.Verdict

	// Latency is the time from mutation to decision (EventEdit only).
	Latency time.Duration

	// TimedOut reports that a synchronous check exceeded CheckTimeout and
	// the request was allowed through (fail-open).
	TimedOut bool
}

// Engine is what the plug-in needs from a policy engine. *policy.Engine
// implements it locally; tagserver.FailoverEngine implements it against the
// shared enterprise tag service.
type Engine interface {
	// ObserveEdit records a paragraph edit and returns the verdict of the
	// text living in its service.
	ObserveEdit(seg segment.ID, service, text string) (policy.Verdict, error)

	// ObserveDocumentEdit records a whole-page observation.
	ObserveDocumentEdit(doc segment.ID, service, text string) (policy.Verdict, error)

	// CheckText evaluates ad-hoc text against a destination service.
	CheckText(text, destService string) (policy.Verdict, error)

	// Mode reports the enforcement mode.
	Mode() policy.Mode
}

var _ Engine = (*policy.Engine)(nil)

// Config configures a Plugin.
type Config struct {
	// Engine is the policy engine (required): local (*policy.Engine) or
	// remote (tagserver.FailoverEngine over a tagserver.Client for one
	// node or a replication group).
	Engine Engine

	// ServiceOf maps a page or request URL to a TDM service name. URLs it
	// rejects are outside BrowserFlow's scope and pass through. Defaults
	// to webapp.ServiceForPath on the URL path.
	ServiceOf func(*url.URL) (string, bool)

	// User is the identity attached to audit entries.
	User string

	// OnEvent, if set, receives every decision event. It may be called
	// concurrently from the decision worker (edit events) and from the
	// goroutine performing a form submission or XHR, so it must be safe
	// for concurrent use.
	OnEvent func(Event)

	// Latency, if set, records edit-decision latencies (Figure 12); make
	// it over obs.LatencyBuckets to read quantiles back.
	Latency *obs.Histogram

	// Logger, if set, receives structured logs: violations at Info,
	// decision errors at Error. Nil disables logging.
	Logger *slog.Logger

	// EncryptionKey is required when the engine runs in encrypting mode:
	// violating XHR payload text is sealed with AES-GCM under this key
	// before upload.
	EncryptionKey []byte

	// QueueSize bounds the asynchronous decision queue (default 1024).
	QueueSize int

	// CheckTimeout bounds the synchronous policy check on the
	// outgoing-request path. §6.2 notes that slow decisions surface as
	// "limited connectivity" errors in cloud services; with a timeout the
	// plug-in fails open instead — the upload proceeds, a timeout event
	// is emitted, and the asynchronous DOM path still flags the text.
	// Zero means no timeout.
	CheckTimeout time.Duration

	// Secrets, if set, adds exact-match detection of short secrets
	// (passwords, API keys) to the outgoing-request checks. Fingerprint
	// tracking cannot handle sub-paragraph text (§4.4); the exact-match
	// store covers that gap, and any hit blocks the upload regardless of
	// the engine's mode.
	Secrets *exactmatch.Store

	// PayloadAdapters maps a service name to the §4.4 "service-specific
	// transformation of the service's data to text segments": a decoder
	// that extracts user text from that service's request bodies. Without
	// an adapter, bodies are inspected with the built-in JSON/plain-text
	// heuristics.
	PayloadAdapters map[string]PayloadAdapter
}

// PayloadAdapter extracts the user text from one service's request body.
// It returns ok=false when the body carries no user text.
type PayloadAdapter func(body []byte) (text string, ok bool)

// NotesPayloadAdapter decodes the Notes service's base64-JSON envelope. It
// is the reference adapter implementation.
func NotesPayloadAdapter(body []byte) (string, bool) {
	values, err := url.ParseQuery(string(body))
	if err != nil {
		return "", false
	}
	payload, err := webapp.DecodeNotesPayload(values.Get("payload"))
	if err != nil {
		return "", false
	}
	return strings.Join(payload.Paragraphs, "\n\n"), true
}

// Plugin is one BrowserFlow plug-in instance. Create with New, attach with
// AttachToBrowser or AttachToTab, and Shutdown when done.
type Plugin struct {
	cfg Config

	queue chan editTask
	stop  chan struct{}
	done  chan struct{}

	stopOnce sync.Once
	pending  sync.WaitGroup

	mu            sync.Mutex
	warnCount     int
	degradedCount int
	recolours     map[*dom.Node]recolourOp
}

// recolourOp is a pending paragraph style update. The decision worker never
// touches the DOM directly — a real extension posts UI updates back to the
// renderer thread — so recolours are queued here and applied on the page
// goroutine by Flush.
type recolourOp struct {
	doc   *dom.Document
	style string
}

type editTask struct {
	seg      segment.ID
	service  string
	text     string
	par      *dom.Node // nil for document-granularity tasks
	doc      *dom.Document
	enqueued time.Time
}

// New returns a started Plugin.
func New(cfg Config) (*Plugin, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("intercept: Engine is required")
	}
	if cfg.ServiceOf == nil {
		cfg.ServiceOf = func(u *url.URL) (string, bool) {
			return webapp.ServiceForPath(u.Path)
		}
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.Engine.Mode() == policy.ModeEncrypting && len(cfg.EncryptionKey) == 0 {
		return nil, fmt.Errorf("intercept: encrypting mode requires EncryptionKey")
	}
	p := &Plugin{
		cfg:       cfg,
		queue:     make(chan editTask, cfg.QueueSize),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		recolours: make(map[*dom.Node]recolourOp),
	}
	go p.worker()
	return p, nil
}

// AttachToBrowser installs the plug-in on every tab the browser opens.
func (p *Plugin) AttachToBrowser(b *browser.Browser) {
	b.OnTabOpen(p.AttachToTab)
}

// AttachToTab installs the interception points on one tab.
func (p *Plugin) AttachToTab(tab *browser.Tab) {
	tab.RegisterSubmitHook(p.submitHook)
	tab.RegisterXHRHook(p.xhrHook)
	tab.OnNavigate(func() { p.observePage(tab) })
}

// Shutdown stops the decision worker after draining queued work.
func (p *Plugin) Shutdown() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Flush blocks until every queued edit decision has been made, then
// applies pending paragraph recolours on the calling goroutine (which must
// be the one interacting with the page, like a browser's renderer thread).
func (p *Plugin) Flush() {
	p.pending.Wait()
	p.applyRecolours()
}

// applyRecolours drains the queued style updates.
func (p *Plugin) applyRecolours() {
	p.mu.Lock()
	ops := p.recolours
	p.recolours = make(map[*dom.Node]recolourOp)
	p.mu.Unlock()
	for par, op := range ops {
		if par.Attr("style") != op.style {
			// Best effort: the paragraph may have been detached meanwhile.
			_ = op.doc.SetAttr(par, "style", op.style)
		}
	}
}

// WarnCount returns how many warn/block/encrypt verdicts the plug-in has
// issued.
func (p *Plugin) WarnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warnCount
}

// DegradedCount returns how many decisions were made while the remote tag
// service was unreachable (a tagserver.FailoverEngine substituted its
// mode's fail-open/fail-closed default; see policy.Verdict.Degraded).
func (p *Plugin) DegradedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degradedCount
}

// --- page observation (§5.2 mutation observers) --------------------------

// observePage attaches mutation observers after a page load and performs
// the initial text extraction, assigning labels to pre-existing text.
func (p *Plugin) observePage(tab *browser.Tab) {
	service, ok := p.cfg.ServiceOf(tab.URL())
	if !ok {
		return
	}
	doc := tab.Document()
	root := doc.Body()

	// Initial scan: register every existing paragraph, then the whole
	// document.
	for _, par := range paragraphElements(root) {
		p.enqueueEdit(doc, par, service, tab)
	}
	p.enqueueDocument(doc, root, service, tab)

	// Observe subsequent mutations. Attribute mutations are ignored — the
	// plug-in itself recolours paragraphs via attributes.
	doc.Observe(root, func(rec dom.MutationRecord) {
		if rec.Type == dom.MutationAttributes {
			return
		}
		par := enclosingParagraph(rec.Target)
		if par == nil && len(rec.Added) == 1 {
			par = enclosingParagraph(rec.Added[0])
		}
		if par == nil {
			return
		}
		p.enqueueEdit(doc, par, service, tab)
		p.enqueueDocument(doc, root, service, tab)
	})
}

// enqueueDocument snapshots the page's full paragraph text and queues a
// document-granularity decision. The tracker's decision cache collapses
// the repeated observations a burst of paragraph edits produces.
func (p *Plugin) enqueueDocument(doc *dom.Document, root *dom.Node, service string, tab *browser.Tab) {
	var parts []string
	for _, par := range paragraphElements(root) {
		if text := par.InnerText(); text != "" {
			parts = append(parts, text)
		}
	}
	task := editTask{
		seg:      documentSegmentID(service, tab),
		service:  service,
		text:     strings.Join(parts, "\n\n"),
		doc:      doc,
		enqueued: time.Now(),
	}
	p.pending.Add(1)
	select {
	case p.queue <- task:
	case <-p.stop:
		p.pending.Done()
	}
}

// enqueueEdit snapshots a paragraph's text and queues the asynchronous
// disclosure decision.
func (p *Plugin) enqueueEdit(doc *dom.Document, par *dom.Node, service string, tab *browser.Tab) {
	seg := paragraphSegmentID(service, tab, par)
	task := editTask{
		seg:      seg,
		service:  service,
		text:     par.InnerText(),
		par:      par,
		doc:      doc,
		enqueued: time.Now(),
	}
	p.pending.Add(1)
	select {
	case p.queue <- task:
	case <-p.stop:
		p.pending.Done()
	}
}

// worker serialises disclosure decisions off the typing path.
func (p *Plugin) worker() {
	defer close(p.done)
	for {
		select {
		case task := <-p.queue:
			p.decide(task)
			p.pending.Done()
		case <-p.stop:
			// Drain whatever is already queued, then exit.
			for {
				select {
				case task := <-p.queue:
					p.decide(task)
					p.pending.Done()
				default:
					return
				}
			}
		}
	}
}

func (p *Plugin) decide(task editTask) {
	var (
		verdict policy.Verdict
		err     error
		kind    EventKind
	)
	if task.par == nil {
		kind = EventDoc
		verdict, err = p.cfg.Engine.ObserveDocumentEdit(task.seg, task.service, task.text)
	} else {
		kind = EventEdit
		verdict, err = p.cfg.Engine.ObserveEdit(task.seg, task.service, task.text)
	}
	latency := time.Since(task.enqueued)
	if err != nil {
		// The page may have raced ahead of service registration, or a
		// remote engine may be unreachable; decisions are advisory, so
		// log and move on rather than wedging the worker.
		if p.cfg.Logger != nil {
			p.cfg.Logger.Error("disclosure decision failed",
				"seg", string(task.seg), "service", task.service, "err", err)
		}
		return
	}
	if p.cfg.Latency != nil {
		p.cfg.Latency.Observe(latency)
	}
	if task.par != nil {
		p.recolour(task, verdict)
	}
	p.emit(Event{
		Kind:    kind,
		Seg:     task.seg,
		Service: task.service,
		Verdict: verdict,
		Latency: latency,
	})
}

// recolour queues the paragraph style that reflects the verdict: a red
// background on a violation (Figure 2), cleared otherwise.
func (p *Plugin) recolour(task editTask, verdict policy.Verdict) {
	style := ""
	if verdict.Violation() {
		style = "background-color: #ff8a80"
	}
	p.mu.Lock()
	p.recolours[task.par] = recolourOp{doc: task.doc, style: style}
	p.mu.Unlock()
}

func (p *Plugin) emit(e Event) {
	if e.Verdict.Degraded {
		p.mu.Lock()
		p.degradedCount++
		p.mu.Unlock()
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("degraded decision (tag service unreachable)",
				"kind", string(e.Kind), "seg", string(e.Seg),
				"service", e.Service, "decision", e.Verdict.Decision.String())
		}
	}
	if e.Verdict.Violation() {
		p.mu.Lock()
		p.warnCount++
		p.mu.Unlock()
		if p.cfg.Logger != nil {
			p.cfg.Logger.Info("policy violation",
				"kind", string(e.Kind), "seg", string(e.Seg),
				"service", e.Service, "decision", e.Verdict.Decision.String(),
				"violating", fmt.Sprint(e.Verdict.Violating))
		}
	}
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(e)
	}
}

// --- form interception (§5.1) --------------------------------------------

// submitHook checks every visible form value against the destination
// service before the request leaves the browser.
func (p *Plugin) submitHook(tab *browser.Tab, form *dom.Node, visible url.Values) error {
	action := form.Attr("action")
	target := tab.URL()
	if action != "" {
		if u, err := url.Parse(action); err == nil {
			target = tab.URL().ResolveReference(u)
		}
	}
	service, ok := p.cfg.ServiceOf(target)
	if !ok {
		return nil
	}
	for _, values := range visible {
		for _, value := range values {
			if err := p.checkSecrets(value, service); err != nil {
				return err
			}
			verdict, err := p.cfg.Engine.CheckText(value, service)
			if err != nil {
				return fmt.Errorf("policy check: %w", err)
			}
			p.emit(Event{Kind: EventForm, Service: service, Verdict: verdict})
			if verdict.Decision == policy.DecisionBlock {
				return fmt.Errorf("form field discloses %v to %s", verdict.Violating, service)
			}
		}
	}
	return nil
}

// checkTextBounded runs CheckText, failing open after CheckTimeout. The
// abandoned check finishes in the background (its result is discarded);
// the asynchronous DOM observation path still evaluates the same text.
func (p *Plugin) checkTextBounded(text, service string) (policy.Verdict, bool, error) {
	if p.cfg.CheckTimeout <= 0 {
		v, err := p.cfg.Engine.CheckText(text, service)
		return v, false, err
	}
	type result struct {
		verdict policy.Verdict
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := p.cfg.Engine.CheckText(text, service)
		ch <- result{verdict: v, err: err}
	}()
	timer := time.NewTimer(p.cfg.CheckTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.verdict, false, r.err
	case <-timer.C:
		return policy.Verdict{}, true, nil
	}
}

// checkSecrets blocks any text containing a registered exact-match secret.
func (p *Plugin) checkSecrets(text, service string) error {
	if p.cfg.Secrets == nil {
		return nil
	}
	matches := p.cfg.Secrets.Scan(text)
	if len(matches) == 0 {
		return nil
	}
	p.emit(Event{
		Kind:    EventSecret,
		Service: service,
		Verdict: policy.Verdict{Decision: policy.DecisionBlock, Service: service,
			Violating: []tdm.Tag{tdm.Tag("secret:" + matches[0].Name)}},
	})
	return fmt.Errorf("upload contains secret %q", matches[0].Name)
}

// --- XHR interception (§5.2) ----------------------------------------------

// xhrHook inspects asynchronous request bodies. Docs-style mutation
// payloads carry user text in a JSON "text" field; other bodies are checked
// as opaque text.
func (p *Plugin) xhrHook(tab *browser.Tab, req *browser.XHRRequest) error {
	service, ok := p.cfg.ServiceOf(req.URL)
	if !ok {
		return nil
	}
	var (
		text       string
		isMutation bool
	)
	if adapter, ok := p.cfg.PayloadAdapters[service]; ok {
		if text, ok = adapter(req.Body); !ok {
			return nil
		}
	} else {
		text, isMutation = extractXHRText(req.Body)
	}
	if text == "" {
		return nil
	}
	if err := p.checkSecrets(text, service); err != nil {
		return err
	}
	verdict, timedOut, err := p.checkTextBounded(text, service)
	if err != nil {
		return fmt.Errorf("policy check: %w", err)
	}
	if timedOut {
		p.emit(Event{Kind: EventXHR, Service: service, TimedOut: true,
			Verdict: policy.Verdict{Decision: policy.DecisionAllow, Service: service}})
		return nil
	}
	p.emit(Event{Kind: EventXHR, Service: service, Verdict: verdict})
	switch verdict.Decision {
	case policy.DecisionBlock:
		return fmt.Errorf("request discloses %v to %s", verdict.Violating, service)
	case policy.DecisionEncrypt:
		sealed, err := p.encryptText(text)
		if err != nil {
			return fmt.Errorf("encrypt payload: %w", err)
		}
		if isMutation {
			var m webapp.MutateRequest
			if err := json.Unmarshal(req.Body, &m); err == nil {
				m.Text = sealed
				if body, err := json.Marshal(m); err == nil {
					req.Body = body
					return nil
				}
			}
		}
		req.Body = []byte(sealed)
	}
	return nil
}

// extractXHRText pulls the user text out of a request body. It understands
// the docs mutation format and falls back to treating the body as plain
// text when it is not JSON.
func extractXHRText(body []byte) (text string, isMutation bool) {
	if len(body) == 0 {
		return "", false
	}
	var m webapp.MutateRequest
	if err := json.Unmarshal(body, &m); err == nil && m.Op != "" {
		return m.Text, true
	}
	return string(body), false
}

// encryptText seals text with AES-GCM and encodes it for JSON transport.
func (p *Plugin) encryptText(text string) (string, error) {
	block, err := aes.NewCipher(p.cfg.EncryptionKey)
	if err != nil {
		return "", err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return "", err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return "", err
	}
	sealed := gcm.Seal(nonce, nonce, []byte(text), nil)
	return "bfenc:" + base64.StdEncoding.EncodeToString(sealed), nil
}

// DecryptText reverses encryptText; it is used by authorised readers (and
// tests) holding the key.
func DecryptText(key []byte, sealed string) (string, error) {
	const prefix = "bfenc:"
	if len(sealed) < len(prefix) || sealed[:len(prefix)] != prefix {
		return "", fmt.Errorf("intercept: not an encrypted payload")
	}
	raw, err := base64.StdEncoding.DecodeString(sealed[len(prefix):])
	if err != nil {
		return "", err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return "", err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return "", err
	}
	if len(raw) < gcm.NonceSize() {
		return "", fmt.Errorf("intercept: ciphertext too short")
	}
	plain, err := gcm.Open(nil, raw[:gcm.NonceSize()], raw[gcm.NonceSize():], nil)
	if err != nil {
		return "", err
	}
	return string(plain), nil
}

// --- paragraph identification ---------------------------------------------

// paragraphElements returns the trackable paragraph elements of a page:
// <p> tags and docs-style custom paragraphs.
func paragraphElements(root *dom.Node) []*dom.Node {
	return root.FindAll(isParagraphElement)
}

func isParagraphElement(n *dom.Node) bool {
	if n.Type != dom.ElementNode {
		return false
	}
	if n.Tag == "p" {
		return true
	}
	return n.Tag == "div" && (n.Class() == "kix-paragraph" || n.Class() == "note-par")
}

// enclosingParagraph walks up from a mutated node to its paragraph element.
func enclosingParagraph(n *dom.Node) *dom.Node {
	for cur := n; cur != nil; cur = cur.Parent() {
		if isParagraphElement(cur) {
			return cur
		}
	}
	return nil
}

// paragraphSegmentID derives a stable segment ID for a paragraph element:
// service + page path + element id.
func paragraphSegmentID(service string, tab *browser.Tab, par *dom.Node) segment.ID {
	doc := segment.DocumentID(service + ":" + tab.URL().Path)
	key := par.ID()
	if key == "" {
		key = fmt.Sprintf("anon-%p", par)
	}
	return segment.ParSegmentID(doc, key)
}

// documentSegmentID derives the whole-page segment ID.
func documentSegmentID(service string, tab *browser.Tab) segment.ID {
	return segment.DocSegmentID(segment.DocumentID(service + ":" + tab.URL().Path))
}
