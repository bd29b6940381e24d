package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
)

// statusWriter captures the response code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Instrument wraps an HTTP handler with RED metrics (request rate,
// error count, duration histogram) under the given endpoint label, and
// lifts an inbound X-BF-Trace header into the request context so every
// layer below can attach spans. Safe on a nil *Obs (returns h
// unchanged).
func (o *Obs) Instrument(endpoint string, h http.Handler) http.Handler {
	if o == nil {
		return h
	}
	reg := o.reg
	requests := func(code int) *Counter {
		return reg.Counter(
			fmt.Sprintf("bf_http_requests_total{endpoint=%q,code=%q}", endpoint, strconv.Itoa(code)),
			"HTTP requests by endpoint and status code.")
	}
	// Per-code counters are cached lock-free: the registry lookup takes
	// an RLock and the name needs a Sprintf, so paying them once per
	// distinct status code (instead of once per request) keeps the RED
	// wrapper off the hot path's lock and allocator.
	var codeCounters [600]atomic.Pointer[Counter]
	counterFor := func(code int) *Counter {
		if code < 0 || code >= len(codeCounters) {
			return requests(code)
		}
		if c := codeCounters[code].Load(); c != nil {
			return c
		}
		c := requests(code)
		codeCounters[code].Store(c)
		return c
	}
	errors := reg.Counter(
		fmt.Sprintf("bf_http_errors_total{endpoint=%q}", endpoint),
		"HTTP responses with a 5xx status code.")
	duration := reg.Histogram(
		fmt.Sprintf("bf_http_request_seconds{endpoint=%q}", endpoint),
		"HTTP request latency by endpoint.", nil)
	rate := reg.RateWindow(
		fmt.Sprintf("bf_http_request_rate{endpoint=%q}", endpoint),
		"HTTP requests per second over a 10s window.", 10)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := reg.Now()
		ctx := r.Context()
		trace := r.Header.Get(TraceHeader)
		if trace != "" {
			ctx = WithTrace(ctx, trace, o.traces)
			r = r.WithContext(ctx)
			w.Header().Set(TraceHeader, trace)
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := reg.Since(start)
		end := start.Add(elapsed)
		counterFor(code).Inc()
		rate.MarkAt(end)
		duration.Observe(elapsed)
		var errSpan error
		if code >= 500 {
			errors.Inc()
			errSpan = fmt.Errorf("status %d", code)
		}
		RecordSpan(ctx, "http."+endpoint, start, elapsed, errSpan,
			map[string]string{"code": strconv.Itoa(code)})
	})
}

// StampRequest copies the trace ID carried by the request's context
// onto its X-BF-Trace header, so outbound calls (client → tagserver,
// replica → primary) keep the trace stitched together.
func StampRequest(req *http.Request) {
	if req == nil {
		return
	}
	if id := TraceID(req.Context()); id != "" && req.Header.Get(TraceHeader) == "" {
		req.Header.Set(TraceHeader, id)
	}
}

// MetricsHandler serves the registry in Prometheus text exposition
// format.
func (o *Obs) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o != nil {
			o.reg.WritePrometheus(w)
		}
	})
}

// traceResponse is the JSON shape served by /v1/debug/traces.
type traceResponse struct {
	Trace string `json:"trace,omitempty"`
	Spans []Span `json:"spans"`
}

// TracesHandler serves the span ring buffer as JSON. `?trace=<id>`
// filters to one trace; `?limit=<n>` caps the unfiltered listing
// (default 256, newest last). Spans contain hashes, IDs, and durations
// only — never monitored text.
func (o *Obs) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if o == nil {
			json.NewEncoder(w).Encode(traceResponse{Spans: []Span{}})
			return
		}
		trace := r.URL.Query().Get("trace")
		var spans []Span
		if trace != "" {
			spans = o.traces.Query(trace)
		} else {
			spans = o.traces.Snapshot()
			limit := 256
			if ls := r.URL.Query().Get("limit"); ls != "" {
				if n, err := strconv.Atoi(ls); err == nil && n > 0 {
					limit = n
				}
			}
			if len(spans) > limit {
				spans = spans[len(spans)-limit:]
			}
		}
		if spans == nil {
			spans = []Span{}
		}
		json.NewEncoder(w).Encode(traceResponse{Trace: trace, Spans: spans})
	})
}
