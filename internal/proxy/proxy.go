// Package proxy provides the §4.4 extension path for data that leaves the
// browser: "Imprecise data flow tracking should be extended to be aware of
// data sources outside the browser. This can be achieved by integrating
// with DLP systems that monitor data flow in native applications."
//
// The Proxy is an HTTP forwarding gateway for native applications: every
// request body passing through it is inspected by both the network DLP
// monitor (exact corpus fingerprints) and, optionally, the BrowserFlow
// policy engine (label-aware, destination-specific). Violating requests
// are rejected with 403 before reaching the upstream service.
package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"

	"github.com/lsds/browserflow/internal/dlpmon"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
)

// DefaultMaxBodyBytes bounds inspected request bodies (overridable with
// Config.MaxBodyBytes). The proxy buffers each body to inspect it, so an
// unbounded body is an easy memory-exhaustion vector.
const DefaultMaxBodyBytes = 8 << 20

// Config configures a Proxy.
type Config struct {
	// Upstream is the base URL requests are forwarded to (required).
	Upstream *url.URL

	// Monitor, if set, runs corpus fingerprint inspection on bodies.
	Monitor *dlpmon.Monitor

	// Engine, if set, additionally evaluates decoded body text against
	// the TDM policy for the destination service.
	Engine *policy.Engine

	// ServiceOf maps the forwarded request URL to a TDM service name for
	// Engine checks. Requests it rejects skip the policy check.
	ServiceOf func(*url.URL) (string, bool)

	// Transport performs the upstream requests (default
	// http.DefaultTransport).
	Transport http.RoundTripper

	// MaxBodyBytes bounds the request bodies the proxy buffers for
	// inspection (default DefaultMaxBodyBytes). Larger requests are
	// rejected with 413 before any inspection or forwarding.
	MaxBodyBytes int64

	// Obs, if set, makes the proxy the trace root: requests without an
	// X-BF-Trace header are minted one, every hop below (engine, WAL,
	// replica apply) attaches spans to it, and forward/block outcomes are
	// counted in the bundle's registry. Nil disables instrumentation.
	Obs *obs.Obs

	// MaxInflight bounds concurrently served requests. Arrivals past the
	// bound are shed immediately with 429 and a Retry-After hint instead
	// of queueing: the proxy buffers every body it inspects, so admitting
	// unbounded concurrency converts a traffic burst into memory growth.
	// 0 disables the gate.
	MaxInflight int
}

// Stats counts proxy outcomes.
type Stats struct {
	Forwarded int64
	Blocked   int64

	// Shed counts requests rejected with 429 by the MaxInflight gate.
	Shed int64
}

// Proxy is an inspecting HTTP forwarder. It implements http.Handler.
type Proxy struct {
	cfg      Config
	inflight chan struct{} // nil when MaxInflight is 0

	forwarded atomic.Int64
	blocked   atomic.Int64
	shed      atomic.Int64

	// requests counts requests by outcome and latency times them, both
	// resolved in New from Config.Obs (nil without it).
	requests map[string]*obs.Counter
	latency  *obs.Histogram
}

var _ http.Handler = (*Proxy)(nil)

// New returns a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("proxy: Upstream is required")
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Engine != nil && cfg.ServiceOf == nil {
		return nil, fmt.Errorf("proxy: Engine requires ServiceOf")
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("proxy: MaxInflight must be >= 0")
	}
	p := &Proxy{cfg: cfg}
	if cfg.MaxInflight > 0 {
		p.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if o := cfg.Obs; o != nil {
		reg := o.Registry()
		p.requests = make(map[string]*obs.Counter)
		for _, outcome := range []string{"forwarded", "blocked", "shed", "error"} {
			p.requests[outcome] = reg.Counter("bf_proxy_requests_total{outcome=\""+outcome+"\"}",
				"Proxy requests by outcome (forwarded, blocked, shed, error).")
		}
		p.latency = reg.Histogram("bf_proxy_request_seconds", "Proxy end-to-end request latency.", nil)
	}
	return p, nil
}

// Stats returns the forward/block/shed counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Forwarded: p.forwarded.Load(),
		Blocked:   p.blocked.Load(),
		Shed:      p.shed.Load(),
	}
}

// ServeHTTP inspects and forwards one request.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Inflight gate first: shed before buffering or inspecting anything,
	// so an overloaded proxy answers in constant time and memory.
	if p.inflight != nil {
		select {
		case p.inflight <- struct{}{}:
			defer func() { <-p.inflight }()
		default:
			p.shed.Add(1)
			if p.requests != nil {
				p.requests["shed"].Add(1)
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("proxy: overloaded, %d requests in flight", p.cfg.MaxInflight), http.StatusTooManyRequests)
			return
		}
	}

	outcome := "error"
	if o := p.cfg.Obs; o != nil {
		trace := r.Header.Get(obs.TraceHeader)
		if trace == "" {
			trace = o.NewTraceID()
		}
		r = r.WithContext(obs.WithTrace(r.Context(), trace, o.Traces()))
		w.Header().Set(obs.TraceHeader, trace)
		sp := obs.StartSpan(r.Context(), "proxy.request")
		reg := o.Registry()
		start := reg.Now()
		defer func() {
			sp.SetAttr("outcome", outcome)
			sp.End(nil)
			p.requests[outcome].Add(1)
			p.latency.Observe(reg.Now().Sub(start))
		}()
	}

	body, err := p.readBody(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			p.blocked.Add(1)
			outcome = "blocked"
			http.Error(w, fmt.Sprintf("proxy: request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "proxy: read body: "+err.Error(), http.StatusBadGateway)
		return
	}

	target := p.cfg.Upstream.ResolveReference(&url.URL{Path: r.URL.Path, RawQuery: r.URL.RawQuery})

	// 1. Corpus fingerprint inspection (network DLP).
	if p.cfg.Monitor != nil {
		verdict, err := p.cfg.Monitor.InspectBody(r.Header.Get("Content-Type"), body)
		if err != nil {
			http.Error(w, "proxy: inspect: "+err.Error(), http.StatusBadGateway)
			return
		}
		if verdict.Blocked() {
			p.blocked.Add(1)
			outcome = "blocked"
			http.Error(w, fmt.Sprintf("proxy: blocked, request discloses %q", verdict.Matches[0].Name), http.StatusForbidden)
			return
		}
	}

	// 2. TDM policy evaluation against the destination service.
	if p.cfg.Engine != nil && len(body) > 0 {
		if service, ok := p.cfg.ServiceOf(target); ok {
			if text, ok := decodeText(r.Header.Get("Content-Type"), body); ok {
				verdict, err := p.cfg.Engine.CheckText(text, service)
				if err != nil {
					http.Error(w, "proxy: policy: "+err.Error(), http.StatusBadGateway)
					return
				}
				if verdict.Decision == policy.DecisionBlock {
					p.blocked.Add(1)
					outcome = "blocked"
					http.Error(w, fmt.Sprintf("proxy: blocked, discloses %v to %s", verdict.Violating, service), http.StatusForbidden)
					return
				}
			}
		}
	}

	// 3. Forward.
	out, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, "proxy: build request: "+err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	// Propagate the request trace to the upstream so its spans join ours.
	obs.StampRequest(out)
	resp, err := p.cfg.Transport.RoundTrip(out)
	if err != nil {
		http.Error(w, "proxy: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	p.forwarded.Add(1)
	outcome = "forwarded"

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// Response already partially written; nothing sensible to do.
		return
	}
}

// readBody buffers the request body for inspection, bounded by
// MaxBodyBytes: an oversized body surfaces as *http.MaxBytesError.
func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	bounded := http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes)
	defer bounded.Close()
	return io.ReadAll(bounded)
}

// decodeText extracts scannable text using the same decoders as the DLP
// monitor.
func decodeText(contentType string, body []byte) (string, bool) {
	for _, dec := range []dlpmon.Decoder{dlpmon.FormDecoder, dlpmon.JSONDecoder} {
		if text, ok := dec(contentType, body); ok {
			return text, true
		}
	}
	return "", false
}
