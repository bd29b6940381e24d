package faultinject

import (
	"net/http"
	"net/http/httptest"
	"sync"
)

// Hosts is an http.RoundTripper that serves each request in process with
// the handler registered for the request's URL host, so a cluster of
// nodes talks over no socket; pass it as an Injector's next to put faults
// between them. The handler sees the caller's context and RoundTrip
// returns when the handler does. A host with no handler fails like a
// refused connection. Hosts may be added while requests flow.
type Hosts struct {
	handlers sync.Map // URL host → http.Handler
}

// NewHosts returns a Hosts with no handler registered.
func NewHosts() *Hosts { return &Hosts{} }

// Handle routes requests for host (a URL's host[:port]) to h.
func (hs *Hosts) Handle(host string, h http.Handler) { hs.handlers.Store(host, h) }

// RoundTrip serves req with its host's handler.
func (hs *Hosts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := hs.handlers.Load(req.URL.Host)
	if !ok {
		return nil, &NotSentError{Method: req.Method, Path: req.URL.Path}
	}
	in := req.Clone(req.Context())
	in.RequestURI, in.RemoteAddr, in.Host = req.URL.RequestURI(), "127.0.0.1:0", req.URL.Host
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.(http.Handler).ServeHTTP(rec, in)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
