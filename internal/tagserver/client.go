package tagserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// DefaultClientTimeout bounds every request a Client makes unless
// overridden with WithTimeout or WithHTTPClient. A shared tag service on
// the decision path must never hang a device indefinitely.
const DefaultClientTimeout = 5 * time.Second

// Client is one device's connection to the shared tag service, which may
// be one node or a replication group. It fingerprints text locally (the
// text never leaves the device) and ships only the winnowed hashes.
// Every request, whatever its method, is routed by one rule (send): it
// goes to the current primary, follows 421 redirects when the group has
// failed over, and rediscovers the primary over /healthz when the primary
// is unreachable or failing. The other nodes are failover candidates and
// are never asked a question: a release check answered by a lagging
// replica can miss an observation the primary already acked and turn a
// block into an allow (§4.3's Algorithm 1 is sound only over every
// observation acked so far).
type Client struct {
	nodes    []string
	device   string
	cfg      fingerprint.Config
	http     *http.Client
	keySeq   atomic.Int64
	keyEpoch int64

	// mu guards the routing state: the node requests go to, and the
	// highest replication term seen, which every request carries.
	mu      sync.Mutex
	primary string
	term    uint64

	// scratch recycles fingerprinting buffers (*fingerprint.Scratch)
	// across calls; see hashes.
	scratch sync.Pool
}

// maxRedirects bounds how many 421 redirects (and rediscoveries) one
// request follows.
const maxRedirects = 3

// ClientOption customises a Client.
type ClientOption func(*Client)

// WithTimeout overrides the client's overall per-call timeout (0 disables
// it — not recommended on the decision path).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.http.Timeout = d }
}

// WithHTTPClient replaces the underlying *http.Client wholesale.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) {
		if h != nil {
			c.http = h
		}
	}
}

// WithTransport sets the underlying transport; compose resilience
// middleware here (see resilience.Chain).
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.http.Transport = rt }
}

// WithRetry wraps the client's transport with retry middleware. Only
// idempotent requests and requests that never reached the server are
// retried; a delivered POST is never replayed.
func WithRetry(policy resilience.RetryPolicy) ClientOption {
	return func(c *Client) {
		c.http.Transport = resilience.NewRetryTransport(c.http.Transport, policy)
	}
}

// WithBreaker wraps the client's transport with circuit-breaker
// middleware.
func WithBreaker(b *resilience.Breaker) ClientOption {
	return func(c *Client) {
		c.http.Transport = resilience.NewBreakerTransport(c.http.Transport, b)
	}
}

// NewClient returns a Client for the service at base, identifying itself
// as device. base is one node (e.g. "http://tags.corp:7000") or a
// replication group's comma-separated node list, primary first
// ("http://p:7000,http://r:7000"). By default calls time out after
// DefaultClientTimeout; resilience middleware is opt-in via
// WithRetry/WithBreaker/WithTransport.
func NewClient(base, device string, cfg fingerprint.Config, opts ...ClientOption) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := strings.Split(base, ",")
	if slices.Contains(nodes, "") || device == "" {
		return nil, fmt.Errorf("tagserver: base URL and device are required")
	}
	c := &Client{
		nodes:    nodes,
		device:   device,
		cfg:      cfg,
		http:     &http.Client{Timeout: DefaultClientTimeout},
		keyEpoch: time.Now().UnixNano(),
		primary:  nodes[0],
		scratch:  sync.Pool{New: func() any { return new(fingerprint.Scratch) }},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Primary returns the node requests are currently sent to.
func (c *Client) Primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// FingerprintConfig returns the client's fingerprint configuration.
func (c *Client) FingerprintConfig() fingerprint.Config { return c.cfg }

// hashes fingerprints text on the device — only hashes ever leave it — and
// returns the owned hash set, safe to queue or encode after the pooled
// scratch has moved on to another call.
func (c *Client) hashes(text string) ([]uint32, error) {
	sc := c.scratch.Get().(*fingerprint.Scratch)
	fp, err := sc.Compute(text, c.cfg)
	c.scratch.Put(sc)
	if err != nil {
		return nil, err
	}
	return fp.Hashes(), nil
}

// UnavailableError marks a failure of the tag service itself — a transport
// error, a 5xx response, or an unreadable/malformed response body — as
// opposed to an application-level rejection (4xx). Failover layers treat
// it as "the service is down", not "the request was wrong".
type UnavailableError struct {
	Op  string
	Err error
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("tagserver: %s: service unavailable: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *UnavailableError) Unwrap() error { return e.Err }

// IsUnavailable reports whether err means the tag service could not
// answer (network failure, 5xx, malformed response, or an open circuit
// breaker).
func IsUnavailable(err error) bool {
	var u *UnavailableError
	if errors.As(err, &u) {
		return true
	}
	return errors.Is(err, resilience.ErrCircuitOpen)
}

// OverloadedError is a 429 from the admission layer: the service is alive
// but shedding load. RetryAfter carries the server's hint on when capacity
// should exist again (0 when the header was absent or malformed). It is
// always wrapped in an UnavailableError, so failover layers treat a shed
// like a transient outage: fail open and replay later.
type OverloadedError struct {
	Op         string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("tagserver: %s: service overloaded, retry after %s", e.Op, e.RetryAfter)
}

// AsOverloaded unwraps an OverloadedError from err, if present.
func AsOverloaded(err error) (*OverloadedError, bool) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}

// NotPrimaryError is a 421 Misdirected Request from a replica or fenced
// ex-primary: the write must be re-sent to Primary (when known). Term is
// the responding node's fencing term; the client folds it into the term
// it stamps, so stale primaries get fenced on contact.
type NotPrimaryError struct {
	Op      string
	Primary string
	Term    uint64

	// RingVersion, when non-zero, marks a partition-ownership redirect
	// rather than a replication failover: the responding node IS a healthy
	// primary, it just does not own the segment under ring RingVersion.
	// Retrying against another node cannot help; the caller (the routing
	// tier) must refresh its ring and re-route.
	RingVersion uint64

	// RetryAfter is the server's Retry-After hint (0 when absent): how
	// long to wait before re-dispatching, e.g. while a promotion is in
	// flight.
	RetryAfter time.Duration
}

// Error implements error.
func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return fmt.Sprintf("tagserver: %s: node is not the primary (term %d, primary unknown)", e.Op, e.Term)
	}
	return fmt.Sprintf("tagserver: %s: node is not the primary (term %d); writes go to %s", e.Op, e.Term, e.Primary)
}

// AsNotPrimary unwraps a NotPrimaryError from err, if present.
func AsNotPrimary(err error) (*NotPrimaryError, bool) {
	var np *NotPrimaryError
	if errors.As(err, &np) {
		return np, true
	}
	return nil, false
}

// Observe records the current text of a paragraph with the shared service.
func (c *Client) Observe(service string, seg segment.ID, text string) (Verdict, error) {
	return c.ObserveCtx(context.Background(), service, seg, text)
}

// ObserveCtx is Observe with a caller-controlled context.
func (c *Client) ObserveCtx(ctx context.Context, service string, seg segment.ID, text string) (Verdict, error) {
	hashes, err := c.hashes(text)
	if err != nil {
		return Verdict{}, err
	}
	return c.ObserveHashes(ctx, service, seg, hashes, "")
}

// ObserveHashes records a pre-computed fingerprint with the shared
// service. granularity is "" / "paragraph" or "document". It is the
// primitive the failover replay queue drains through.
func (c *Client) ObserveHashes(ctx context.Context, service string, seg segment.ID, hashes []uint32, granularity string) (Verdict, error) {
	return c.postVerdict(ctx, "/v1/observe", ObserveRequest{
		Device:      c.device,
		Service:     service,
		Seg:         seg,
		Hashes:      hashes,
		Granularity: granularity,
	})
}

// BatchItem is one paragraph edit inside a client-side flush: the segment
// and its current text. The text is fingerprinted locally; only hashes go
// on the wire.
type BatchItem struct {
	Seg  segment.ID
	Text string

	// Granularity is "" / "paragraph" or "document".
	Granularity string
}

// ObserveBatch flushes a queue of coalesced edits to the shared service in
// one request — the shape in which a browser extension ships buffered DOM
// mutations. It returns one verdict per item, in order.
func (c *Client) ObserveBatch(service string, items []BatchItem) ([]Verdict, error) {
	return c.ObserveBatchCtx(context.Background(), service, items)
}

// ObserveBatchCtx is ObserveBatch with a caller-controlled context.
func (c *Client) ObserveBatchCtx(ctx context.Context, service string, items []BatchItem) ([]Verdict, error) {
	wire := make([]BatchObserveItem, len(items))
	for i, item := range items {
		hashes, err := c.hashes(item.Text)
		if err != nil {
			return nil, err
		}
		wire[i] = BatchObserveItem{
			Seg:         item.Seg,
			Hashes:      hashes,
			Granularity: item.Granularity,
		}
	}
	return c.ObserveHashesBatch(ctx, service, wire)
}

// ObserveHashesBatch flushes pre-fingerprinted observations to the shared
// service's /v1/observe/batch endpoint, amortising transport and decode
// cost across the whole flush.
func (c *Client) ObserveHashesBatch(ctx context.Context, service string, items []BatchObserveItem) ([]Verdict, error) {
	var out BatchObserveResponse
	if err := c.post(ctx, "/v1/observe/batch", BatchObserveRequest{
		Device:  c.device,
		Service: service,
		Items:   items,
	}, &out); err != nil {
		return nil, err
	}
	return out.Verdicts, nil
}

// Check evaluates ad-hoc text against a destination service.
func (c *Client) Check(text, dest string) (Verdict, error) {
	return c.CheckCtx(context.Background(), text, dest)
}

// CheckCtx is Check with a caller-controlled context.
func (c *Client) CheckCtx(ctx context.Context, text, dest string) (Verdict, error) {
	hashes, err := c.hashes(text)
	if err != nil {
		return Verdict{}, err
	}
	return c.postVerdict(ctx, "/v1/check", CheckRequest{
		Device: c.device,
		Dest:   dest,
		Hashes: hashes,
	})
}

// CheckUpload evaluates releasing a tracked segment to a destination.
func (c *Client) CheckUpload(seg segment.ID, dest string) (Verdict, error) {
	return c.CheckUploadCtx(context.Background(), seg, dest)
}

// CheckUploadCtx is CheckUpload with a caller-controlled context.
func (c *Client) CheckUploadCtx(ctx context.Context, seg segment.ID, dest string) (Verdict, error) {
	return c.postVerdict(ctx, "/v1/upload", UploadRequest{
		Device: c.device,
		Seg:    seg,
		Dest:   dest,
	})
}

// Suppress declassifies a tag on a segment, audited under user.
func (c *Client) Suppress(user string, seg segment.ID, tag tdm.Tag, justification string) error {
	return c.SuppressCtx(context.Background(), user, seg, tag, justification)
}

// SuppressCtx is Suppress with a caller-controlled context.
func (c *Client) SuppressCtx(ctx context.Context, user string, seg segment.ID, tag tdm.Tag, justification string) error {
	return c.post(ctx, "/v1/suppress", SuppressRequest{
		User: user, Seg: seg, Tag: tag, Justification: justification,
	}, nil)
}

// Label fetches a segment's label.
func (c *Client) Label(seg segment.ID) (LabelResponse, error) {
	return c.LabelCtx(context.Background(), seg)
}

// LabelCtx is Label with a caller-controlled context.
func (c *Client) LabelCtx(ctx context.Context, seg segment.ID) (LabelResponse, error) {
	var out LabelResponse
	err := c.getJSON(ctx, "/v1/label?seg="+url.QueryEscape(string(seg)), &out)
	return out, err
}

// Stats fetches the service's database sizes.
func (c *Client) Stats() (StatsResponse, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats with a caller-controlled context.
func (c *Client) StatsCtx(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}

// Health probes the service's /healthz endpoint. A nil return means the
// service answered and is serving; anything else is an UnavailableError
// (or a context error).
func (c *Client) Health(ctx context.Context) error {
	var out HealthResponse
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return &UnavailableError{Op: "/healthz", Err: fmt.Errorf("status %q", out.Status)}
	}
	return nil
}

// getJSON performs a routed GET and decodes the JSON response.
func (c *Client) getJSON(ctx context.Context, pathAndQuery string, into interface{}) error {
	resp, err := c.send(ctx, http.MethodGet, pathAndQuery, nil)
	if err != nil {
		return err
	}
	return decode(pathAndQuery, resp, into)
}

func (c *Client) postVerdict(ctx context.Context, path string, req interface{}) (Verdict, error) {
	var v Verdict
	if err := c.post(ctx, path, req, &v); err != nil {
		return Verdict{}, err
	}
	return v, nil
}

// post performs a routed POST of req's JSON and decodes the response
// into into (nil discards it).
func (c *Client) post(ctx context.Context, path string, req, into interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.send(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	return decode(path, resp, into)
}

// decode reads a 200 response's JSON body into into (nil discards it)
// and closes it. A malformed body is unavailability, not an answer.
func decode(path string, resp *http.Response, into interface{}) error {
	defer resp.Body.Close()
	if into == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return &UnavailableError{Op: path, Err: fmt.Errorf("decode response: %w", err)}
	}
	return nil
}

// send is the one place a node is picked. It sends the request to the
// current primary and returns the 200 response (the caller closes its
// body) or the classified error, after:
//
//   - following up to maxRedirects 421 redirects, adopting the primary
//     and the term each one names. A redirect that names nobody, or
//     points back to a node already tried this request (a mid-promotion
//     group can ping-pong), falls back to discovery; one carrying
//     Retry-After (a promotion in flight) waits that long first; one
//     carrying a ring version is a partition-ownership redirect and is
//     returned, since only the routing tier can fix a stale ring;
//   - rediscovering the primary on a transport failure or a 5xx, and
//     re-sending only when discovery adopted a different node;
//   - returning anything else at once: a 429 with its Retry-After hint,
//     or an application-level 4xx.
//
// Every request carries the highest term seen (X-BF-Term), so a deposed
// primary that receives a write is fenced on contact.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var key string
	if body != nil {
		// One key per logical request: a re-send to another node, and the
		// retry layer's replays, reuse it.
		key = c.idempotencyKey()
	}
	var visited [maxRedirects + 1]string
	for hop := 0; ; hop++ {
		base := c.Primary()
		visited[hop] = base
		resp, err := c.do(ctx, base, method, path, body, key)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				return resp, nil
			}
			err = statusError(path, resp)
			resp.Body.Close()
		}
		_, shed := AsOverloaded(err)
		np, redirect := AsNotPrimary(err)
		switch {
		case redirect && np.RingVersion == 0:
			c.learn(np.Primary, np.Term)
			if np.RetryAfter > 0 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(np.RetryAfter):
				}
			}
			if (np.Primary == "" || slices.Contains(visited[:hop+1], c.Primary())) && !c.discover(ctx, base) {
				return nil, err
			}
		case !IsUnavailable(err) || shed || !c.discover(ctx, base):
			return nil, err
		}
		if hop == maxRedirects {
			return nil, err
		}
	}
}

// do sends one request to one node; a request with a body carries key as
// its Idempotency-Key.
func (c *Client) do(ctx context.Context, base, method, path string, body []byte, key string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		// A *bytes.Reader sets GetBody, so resilience middleware can
		// replay the body when a retry is safe.
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		// Every tag-service mutation becomes an idempotent WAL record on
		// the server (re-applying it converges to the same state), so mark
		// the request replay-safe: the retry layer may then re-send a POST
		// even when the first attempt's delivery status is unknown.
		req.Header.Set(resilience.IdempotencyKeyHeader, key)
	}
	c.mu.Lock()
	term := c.term
	c.mu.Unlock()
	if term > 0 {
		req.Header.Set("X-BF-Term", strconv.FormatUint(term, 10))
	}
	// Carry the caller's trace (if any) to the server so its spans —
	// handler, engine observe, WAL append — join the same trace ID.
	obs.StampRequest(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, &UnavailableError{Op: path, Err: err}
	}
	return resp, nil
}

// learn folds a node's report of the primary and the term into the
// routing state.
func (c *Client) learn(primary string, term uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.term = max(c.term, term)
	if primary != "" {
		c.primary = primary
	}
}

// discover probes the group's /healthz endpoints, current primary first,
// for the node that reports the primary role (or names the primary), and
// adopts it. It reports whether it adopted a node other than tried, the
// one that just failed. A group of one has nobody else to ask and probes
// nothing.
func (c *Client) discover(ctx context.Context, tried string) bool {
	c.mu.Lock()
	candidates := []string{c.primary}
	for _, n := range c.nodes {
		if n != c.primary {
			candidates = append(candidates, n)
		}
	}
	c.mu.Unlock()
	if len(candidates) == 1 {
		return false
	}
	for _, base := range candidates {
		repl := c.probe(ctx, base)
		if repl == nil {
			continue
		}
		adopt := repl.Primary
		if repl.Role == "primary" {
			adopt = base
		}
		c.learn(adopt, repl.Term)
		if adopt != "" {
			return adopt != tried
		}
	}
	return false
}

// probe fetches one node's /healthz replication section: nil when the
// node cannot answer or runs unreplicated.
func (c *Client) probe(ctx context.Context, base string) *HealthReplication {
	resp, err := c.do(ctx, base, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var h HealthResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return nil
	}
	return h.Replication
}

// idempotencyKey mints a unique per-logical-request key: retries of the
// same request reuse it, distinct requests never collide.
func (c *Client) idempotencyKey() string {
	return fmt.Sprintf("%s-%d-%d", c.device, c.keyEpoch, c.keySeq.Add(1))
}

// StatusError is a non-200, non-redirect HTTP status the node produced
// deliberately — typically a 4xx like "unknown segment". It preserves
// the code and body so a relaying tier (the partition router) can
// re-emit the node's answer verbatim instead of rewrapping it.
type StatusError struct {
	Op      string
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("tagserver: %s status %d: %s", e.Op, e.Code, e.Message)
}

// statusError converts a non-200 response into an error, classifying 5xx
// as unavailability and 421 as a replication redirect. The caller closes
// the body.
func statusError(path string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode == http.StatusMisdirectedRequest {
		return notPrimaryError(path, resp, body)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		hint, _ := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return &UnavailableError{Op: path, Err: &OverloadedError{Op: path, RetryAfter: hint}}
	}
	err := &StatusError{Op: path, Code: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	if resp.StatusCode >= http.StatusInternalServerError {
		return &UnavailableError{Op: path, Err: err}
	}
	return err
}

// notPrimaryError builds a NotPrimaryError from a 421 response: the JSON
// body's primary/term fields, with the X-BF-Primary / X-BF-Term headers
// as fallback.
func notPrimaryError(path string, resp *http.Response, body []byte) *NotPrimaryError {
	np := &NotPrimaryError{Op: path}
	var wire struct {
		Primary string `json:"primary"`
		Term    uint64 `json:"term"`
	}
	if json.Unmarshal(body, &wire) == nil {
		np.Primary, np.Term = wire.Primary, wire.Term
	}
	if np.Primary == "" {
		np.Primary = resp.Header.Get("X-BF-Primary")
	}
	if np.Term == 0 {
		if term, err := strconv.ParseUint(resp.Header.Get("X-BF-Term"), 10, 64); err == nil {
			np.Term = term
		}
	}
	if v, err := strconv.ParseUint(resp.Header.Get(HeaderRingVersion), 10, 64); err == nil {
		np.RingVersion = v
	}
	// A 421 during promotion may hint when the new primary will be
	// electable; honour it exactly like a 429's backoff hint.
	if hint, ok := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		np.RetryAfter = hint
	}
	return np
}
