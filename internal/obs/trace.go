package obs

import (
	"context"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

// TraceHeader is the HTTP header that carries a BrowserFlow trace ID
// end-to-end: minted at bfproxy (or a client), propagated through
// tagserver handlers, the policy engine, WAL appends, and the
// replication stream.
const TraceHeader = "X-BF-Trace"

// Span is one timed unit of work attributed to a trace. Spans carry
// names, identifiers, byte/hash counts, and durations — never monitored
// text (the journal's privacy rule applies to traces too).
type Span struct {
	Trace    string            `json:"trace"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"err,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceLog is a fixed-capacity ring buffer of completed spans. Writers
// append under a short mutex (span completion is not the per-hash hot
// path); readers snapshot.
type TraceLog struct {
	clock clock.Clock
	mu    sync.Mutex
	ring  []Span
	next  int
	n     int
}

// DefaultTraceCap is the default ring capacity.
const DefaultTraceCap = 4096

// newTraceLog builds a trace ring with the given clock and capacity (<=0
// means DefaultTraceCap).
func newTraceLog(c clock.Clock, capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceLog{clock: c, ring: make([]Span, capacity)}
}

// Record appends a completed span to the ring, evicting the oldest span
// when full. Safe on a nil receiver (drops the span).
func (t *TraceLog) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot returns all buffered spans, oldest first.
func (t *TraceLog) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Query returns the buffered spans for one trace ID, oldest first.
func (t *TraceLog) Query(trace string) []Span {
	var out []Span
	for _, s := range t.Snapshot() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// traceCtx is what rides the context: the trace ID plus the ring the
// spans should land in, so any layer below can record spans without a
// package-level global.
type traceCtx struct {
	id  string
	log *TraceLog
}

type traceKey struct{}

// WithTrace returns a context carrying the trace ID and destination
// span log. A nil log still propagates the ID (spans are dropped).
func WithTrace(ctx context.Context, id string, log *TraceLog) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceCtx{id: id, log: log})
}

// TraceID returns the trace ID carried by ctx, or "".
func TraceID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc.id
}

// traceFrom returns the full trace context, if any.
func traceFrom(ctx context.Context) (traceCtx, bool) {
	if ctx == nil {
		return traceCtx{}, false
	}
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	return tc, ok && tc.id != ""
}

// SpanHandle finishes one in-flight span. The zero value is a no-op, so
// callers unconditionally `defer sp.End(nil)`.
type SpanHandle struct {
	tc    traceCtx
	name  string
	start time.Time
	attrs map[string]string
}

// StartSpan begins a span named name if ctx carries a trace. When ctx
// has no trace (or no span log) the returned handle is inert and End
// costs one branch — instrumented code paths pay nothing when tracing
// is off.
func StartSpan(ctx context.Context, name string) SpanHandle {
	tc, ok := traceFrom(ctx)
	if !ok || tc.log == nil {
		return SpanHandle{}
	}
	return SpanHandle{tc: tc, name: name, start: tc.log.clock.Now()}
}

// Active reports whether the span will be recorded; hot paths use it
// to skip attribute computation when tracing is off.
func (h SpanHandle) Active() bool { return h.tc.log != nil }

// SetAttr attaches a key/value attribute to the span. Values must
// follow the privacy rule: hashes, IDs, and counts only.
func (h *SpanHandle) SetAttr(key, value string) {
	if h.tc.log == nil {
		return
	}
	if h.attrs == nil {
		h.attrs = make(map[string]string, 2)
	}
	h.attrs[key] = value
}

// End completes the span, recording its duration and error (if any).
func (h SpanHandle) End(err error) {
	if h.tc.log == nil {
		return
	}
	end := h.tc.log.clock.Now()
	s := Span{
		Trace:    h.tc.id,
		Name:     h.name,
		Start:    h.start,
		Duration: end.Sub(h.start),
		Attrs:    h.attrs,
	}
	if err != nil {
		s.Err = err.Error()
	}
	h.tc.log.Record(s)
}

// RecordSpan records an already-measured span against the trace carried
// by ctx. Used by layers that time work themselves (e.g. retry loops).
func RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, err error, attrs map[string]string) {
	tc, ok := traceFrom(ctx)
	if !ok || tc.log == nil {
		return
	}
	s := Span{Trace: tc.id, Name: name, Start: start, Duration: d, Attrs: attrs}
	if err != nil {
		s.Err = err.Error()
	}
	tc.log.Record(s)
}
