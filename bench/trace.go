package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wal"
)

// The traced pass records spans from outside the program, through the seams
// it already exposes: http.RoundTripper (tagserver.WithTransport,
// RouterOptions.ClientOptions), http.Handler, admission.Engine,
// policy.Journal (Engine.SetJournal) and wal.FS (DurableOptions.FS). No
// counter or span is added to the program itself.

// layer is a span's position in the call chain, outermost first. A span's
// parent is the innermost enclosing span of a lower layer.
type layer uint8

const (
	layerOp      layer = iota // the driver's call into the rig (client call or engine call)
	layerRTT                  // client's RoundTripper
	layerProxy                // partition.NewHandler on the routing tier
	layerLeg                  // router's RoundTripper, one per partition leg
	layerHandler              // tagserver.Server on a node
	layerEngine               // admission.Engine: the policy engine behind the pipeline
	layerJournal              // policy.Journal: store.Durable
	layerWrite                // wal.File.Write
	layerSync                 // wal.File.Sync
	numLayers
)

var layerNames = [numLayers]string{
	"op", "rtt", "proxy", "leg", "handler", "engine", "journal", "fs.write", "fs.sync",
}

// noNode tags spans that belong to no partition node (driver, client,
// routing tier).
const noNode = -1

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	layer layer
	node  int8  // partition node the span ran on (or was sent to), noNode otherwise
	op    int32 // driver's op counter when the span was recorded
	bytes int32 // payload size where the layer has one (request/response body, write)
	start int64
	end   int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer collects spans into a pre-allocated slice. It is off until the
// traced blocks start, so the wrappers cost one atomic load per call on
// every other phase of a traced run.
type tracer struct {
	on    atomic.Bool
	curOp atomic.Int32
	epoch time.Time

	mu    sync.Mutex // scatter legs and background fsyncs record concurrently
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin returns the start time of a span, or -1 while the tracer is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

// end records the span begin started; it does nothing for a start of -1.
func (t *tracer) end(l layer, node int, start int64, bytes int) {
	if start < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: l, node: int8(node), op: t.curOp.Load(),
		bytes: int32(bytes), start: start, end: end})
	t.mu.Unlock()
}

// writeJSONL dumps every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Name  string `json:"name"`
			Node  int8   `json:"node"`
			Op    int32  `json:"op"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
			Bytes int32  `json:"bytes,omitempty"`
		}{layerNames[s.layer], s.node, s.op, s.start, s.end, s.bytes}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- span arithmetic --------------------------------------------------------

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. With one serial client the causing
// span needs no identifier: a span's parent is the innermost span of a lower
// layer that contains it in time on a compatible node (a node-less parent
// may enclose any node's spans; a leg or node span only its own node's).
// Overlapping children — concurrent scatter legs — are counted once. A span
// nothing contains (a background group-commit fsync) is a root with
// parent -1.
func selfTimes(spans []span) (self []int64, parent []int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Outer spans first: by start, then longer first, then lower layer.
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		if x.end != y.end {
			return x.end > y.end
		}
		return x.layer < y.layer
	})
	self = make([]int64, len(spans))
	parent = make([]int, len(spans))
	covered := make([]int64, len(spans)) // union of children's coverage so far
	coverEnd := make([]int64, len(spans))
	var stack []int // spans still open at the sweep position
	for _, i := range order {
		s := spans[i]
		live := stack[:0]
		for _, j := range stack {
			if spans[j].end > s.start {
				live = append(live, j)
			}
		}
		stack = live
		parent[i] = -1
		for k := len(stack) - 1; k >= 0; k-- {
			p := spans[stack[k]]
			if p.layer < s.layer && p.end >= s.end && (p.node == noNode || p.node == s.node) {
				parent[i] = stack[k]
				break
			}
		}
		if j := parent[i]; j >= 0 {
			from := s.start
			if coverEnd[j] > from {
				from = coverEnd[j]
			}
			if s.end > from {
				covered[j] += s.end - from
				coverEnd[j] = s.end
			}
		}
		coverEnd[i] = s.start
		stack = append(stack, i)
	}
	for i, s := range spans {
		self[i] = s.dur() - covered[i]
	}
	return self, parent
}

// --- seam wrappers ----------------------------------------------------------

// tracedTransport times every request sent through it. nodeOf maps a
// request's host to the partition node it addresses (nil for the client's
// own transport).
type tracedTransport struct {
	t      *tracer
	next   http.RoundTripper
	layer  layer
	nodeOf map[string]int
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	node, ok := tt.nodeOf[req.URL.Host]
	if !ok {
		node = noNode
	}
	start := tt.t.begin()
	resp, err := tt.next.RoundTrip(req)
	tt.t.end(tt.layer, node, start, int(req.ContentLength))
	return resp, err
}

// countingWriter records the response body size a handler wrote.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.n += len(p)
	return cw.ResponseWriter.Write(p)
}

// tracedHandler times a whole http.Handler; the span's bytes is the response
// body size.
func tracedHandler(t *tracer, l layer, node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := t.begin()
		next.ServeHTTP(cw, r)
		t.end(l, node, start, cw.n)
	})
}

// tracedEngine times the engine calls the admission pipeline makes.
type tracedEngine struct {
	t    *tracer
	node int
	next admission.Engine
}

func (te *tracedEngine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	start := te.t.begin()
	v, err := te.next.ObserveEditFPCtx(ctx, seg, service, fp)
	te.t.end(layerEngine, te.node, start, 0)
	return v, err
}

func (te *tracedEngine) ObserveDocumentEditFPCtx(ctx context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	return te.next.ObserveDocumentEditFPCtx(ctx, doc, service, fp)
}

func (te *tracedEngine) ObserveBatchFPCtx(ctx context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error) {
	start := te.t.begin()
	v, err := te.next.ObserveBatchFPCtx(ctx, service, items)
	te.t.end(layerEngine, te.node, start, 0)
	return v, err
}

// tracedJournal times the observe records the engine journals; the other
// mutations (suppress, grant, ...) do not occur in the benchmark and pass
// through the embedded journal untimed.
type tracedJournal struct {
	policy.Journal
	t    *tracer
	node int
}

func (tj *tracedJournal) Observe(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32) error {
	start := tj.t.begin()
	err := tj.Journal.Observe(ctx, seg, service, g, hashes)
	tj.t.end(layerJournal, tj.node, start, 0)
	return err
}

func (tj *tracedJournal) ObserveBatch(ctx context.Context, service string, items []disclosure.BatchObservation) error {
	start := tj.t.begin()
	err := tj.Journal.ObserveBatch(ctx, service, items)
	tj.t.end(layerJournal, tj.node, start, 0)
	return err
}

func (tj *tracedJournal) ObserveResolved(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) error {
	start := tj.t.begin()
	err := tj.Journal.ObserveResolved(ctx, seg, service, g, hashes, clock, sources, tags)
	tj.t.end(layerJournal, tj.node, start, 0)
	return err
}

// tracedFS hands out files whose writes and fsyncs are timed. Embedding
// wal.OSFS keeps its Map method, so checkpoint recovery still takes the mmap
// path.
type tracedFS struct {
	wal.OSFS
	t    *tracer
	node int
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t, node: fs.node}, nil
}

type tracedFile struct {
	wal.File
	t    *tracer
	node int
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.t.begin()
	n, err := f.File.Write(p)
	f.t.end(layerWrite, f.node, start, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.begin()
	err := f.File.Sync()
	f.t.end(layerSync, f.node, start, 0)
	return err
}
