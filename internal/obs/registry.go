package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/lsds/browserflow/internal/clock"
)

// numStripes is the number of independent cells a Counter spreads its
// increments over. Must be a power of two.
const numStripes = 16

// cacheLine pads striped cells so adjacent stripes do not share a cache
// line (false sharing would serialise the "independent" stripes).
const cacheLine = 64

type stripedCell struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// stripeIdx picks a stripe for the calling goroutine. Goroutine stacks
// are distinct allocations, so the address of a stack variable is a
// cheap, stable-enough per-goroutine discriminator. Bits below the frame
// alignment are discarded.
func stripeIdx() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 9 & (numStripes - 1))
}

// Counter is a monotone event counter. Add is a single atomic add on a
// lock-striped cell; Value sums the stripes.
type Counter struct {
	cells [numStripes]stripedCell
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; counters are monotone).
func (c *Counter) Add(n uint64) {
	c.cells[stripeIdx()].v.Add(n)
}

// Value returns the current total. Concurrent adds may or may not be
// included, but the value never decreases across calls.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integral value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds delta (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency histogram bounds in seconds,
// spanning 100µs to ~10s — the range the paper's tail-latency figures
// (§6.2) care about.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observe performs one
// atomic add on the matching bucket cell and one atomic add on the
// nanosecond sum — no locks, no allocation. The exposed _count is
// derived from the bucket cells in a single pass, so a scraped snapshot
// always satisfies count == Σ buckets (no torn snapshots).
type Histogram struct {
	bounds  []float64 // sorted upper bounds, seconds
	cells   []atomic.Uint64
	sumNano atomic.Int64
}

// NewHistogram returns a histogram that is not attached to a registry,
// for a package that keeps a latency distribution in its own stats
// struct and has it exposed by whoever collects that struct (the WAL's
// fsync latency). bounds are upper bounds in seconds; nil means
// DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		cells:  make([]atomic.Uint64, len(b)+1), // +1 = +Inf overflow
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	// Binary search for the first bound >= sec (le semantics: a value
	// exactly on a boundary lands in that boundary's bucket).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < sec {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.cells[lo].Add(1)
	h.sumNano.Add(int64(d))
}

// HistogramSnapshot is a consistent view of a histogram: Counts has one
// entry per bound plus the +Inf overflow, and Count == Σ Counts.
type HistogramSnapshot struct {
	Bounds  []float64
	Counts  []uint64
	Count   uint64
	SumSecs float64
}

// Snapshot reads every bucket cell once and derives the total from the
// same reads, so the invariant Count == Σ Counts holds even under
// concurrent observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.cells)),
	}
	for i := range h.cells {
		c := h.cells[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumSecs = time.Duration(h.sumNano.Load()).Seconds()
	return s
}

// rateSlot is one second of a RateWindow ring.
type rateSlot struct {
	epoch atomic.Int64 // unix second this slot currently represents
	count atomic.Uint64
}

// RateWindow counts events over a sliding window of whole seconds and
// reports events/second. Mark is lock-free: one epoch check and one
// atomic add. The window is aligned to the registry clock, so rollover
// is deterministic under a fake clock.
type RateWindow struct {
	clock clock.Clock
	slots []rateSlot
}

func newRateWindow(c clock.Clock, windowSecs int) *RateWindow {
	if windowSecs < 1 {
		windowSecs = 1
	}
	// One extra slot so the current (partial) second never aliases the
	// oldest full second being summed.
	return &RateWindow{clock: c, slots: make([]rateSlot, windowSecs+1)}
}

// Mark records one event at the current clock second.
func (w *RateWindow) Mark() { w.MarkN(1) }

// MarkN records n events at the current clock second.
func (w *RateWindow) MarkN(n uint64) { w.markSec(w.clock.Now().Unix(), n) }

// MarkAt records one event at t's second. Callers that already hold a
// timestamp (e.g. the RED wrapper, which reads the clock for the
// latency histogram anyway) use this to avoid a second clock read on
// the hot path.
func (w *RateWindow) MarkAt(t time.Time) { w.markSec(t.Unix(), 1) }

func (w *RateWindow) markSec(sec int64, n uint64) {
	s := &w.slots[int(sec%int64(len(w.slots)))]
	if e := s.epoch.Load(); e != sec {
		// The slot has rolled around to a new second: claim it and reset.
		// A racing marker that loses the CAS observes the new epoch on
		// retry and adds to the freshly reset counter.
		if s.epoch.CompareAndSwap(e, sec) {
			s.count.Store(0)
		}
	}
	s.count.Add(n)
}

// Rate returns events/second over the last window, excluding the
// current in-progress second.
func (w *RateWindow) Rate() float64 {
	sec := w.clock.Now().Unix()
	window := int64(len(w.slots) - 1)
	var total uint64
	for i := range w.slots {
		e := w.slots[i].epoch.Load()
		if e >= sec-window && e < sec {
			total += w.slots[i].count.Load()
		}
	}
	return float64(total) / float64(window)
}

const (
	kindCounter = iota
	kindGauge
	kindHistogram
	kindRate
)

type metric struct {
	name  string // full series name, possibly with {labels}
	help  string
	kind  int
	ctr   *Counter
	gauge *Gauge
	hist  *Histogram
	rate  *RateWindow
}

// sample is one series value of one exposition.
type sample struct {
	name   string
	family string // name up to '{'
	help   string
	kind   int // kindCounter, kindGauge or kindHistogram
	count  uint64
	value  float64
	hist   HistogramSnapshot
}

// Scrape gathers the samples of one exposition. A collector registered
// with Registry.Collect receives it once per scrape, takes one snapshot
// of the state it owns and emits every series derived from it, so the
// series of one subsystem are mutually consistent and cost one snapshot.
type Scrape struct {
	now     time.Time
	samples []sample
}

// Now is the registry clock read once at the start of the scrape; ages
// computed from it are deterministic under a fake clock.
func (s *Scrape) Now() time.Time { return s.now }

// Counter emits a monotone count. name ends in _total and may carry a
// label suffix, like the names Registry.Counter takes.
func (s *Scrape) Counter(name, help string, v uint64) {
	s.samples = append(s.samples, sample{name: name, family: family(name), help: help, kind: kindCounter, count: v})
}

// Gauge emits an instantaneous value.
func (s *Scrape) Gauge(name, help string, v float64) {
	s.samples = append(s.samples, sample{name: name, family: family(name), help: help, kind: kindGauge, value: v})
}

// Histogram emits a histogram snapshot taken by the state's owner.
func (s *Scrape) Histogram(name, help string, h HistogramSnapshot) {
	s.samples = append(s.samples, sample{name: name, family: family(name), help: help, kind: kindHistogram, hist: h})
}

// Registry is a process-wide metric registry. Metric creation
// (get-or-create by name) takes a lock; all recording on the returned
// metric objects is lock-free. The exposition output is fully sorted,
// so two registries fed identical events under identical clocks produce
// byte-identical output.
type Registry struct {
	clock      clock.Clock
	mu         sync.RWMutex
	metrics    map[string]*metric
	collectors []func(*Scrape)
}

func newRegistry(c clock.Clock) *Registry {
	return &Registry{clock: c, metrics: make(map[string]*metric)}
}

// clk is the registry's clock; the real one on a nil registry.
func (r *Registry) clk() clock.Clock {
	if r == nil {
		return clock.Or(nil)
	}
	return r.clock
}

// Now reads the registry's clock. Safe on nil (the real clock).
func (r *Registry) Now() time.Time { return r.clk().Now() }

// Since returns the elapsed time since start on the registry's clock; on
// the real clock that reads only the monotonic counter (clock.Clock).
func (r *Registry) Since(start time.Time) time.Duration { return r.clk().Since(start) }

func (r *Registry) lookup(name string, kind int) (*metric, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok && m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return m, ok
}

func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) register(name, help string, kind int, build func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	build(m)
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. name may carry a Prometheus label suffix, e.g.
// `bf_http_requests_total{endpoint="observe",code="200"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	if m, ok := r.lookup(name, kindCounter); ok {
		return m.ctr
	}
	return r.register(name, help, kindCounter, func(m *metric) { m.ctr = &Counter{} }).ctr
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	if m, ok := r.lookup(name, kindGauge); ok {
		return m.gauge
	}
	return r.register(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Collect registers a scrape-time collector: fn runs exactly once per
// WritePrometheus, outside the registry lock, and emits typed samples
// that are sorted into the exposition beside the registered metrics. It
// is how a subsystem whose series all derive from one stats struct
// exports them from one snapshot.
func (r *Registry) Collect(fn func(*Scrape)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds (seconds) if needed; nil bounds means
// DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(DefBuckets)
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	if m, ok := r.lookup(name, kindHistogram); ok {
		return m.hist
	}
	return r.register(name, help, kindHistogram, func(m *metric) { m.hist = NewHistogram(bounds) }).hist
}

// RateWindow returns the rate window registered under name, creating it
// with the given window length (seconds) if needed. Exposed as a gauge
// reporting events/second.
func (r *Registry) RateWindow(name, help string, windowSecs int) *RateWindow {
	if r == nil {
		return newRateWindow(clock.Or(nil), windowSecs)
	}
	if m, ok := r.lookup(name, kindRate); ok {
		return m.rate
	}
	return r.register(name, help, kindRate, func(m *metric) { m.rate = newRateWindow(r.clock, windowSecs) }).rate
}

// fmtFloat renders a float the same way every time: integral values are
// printed without an exponent or trailing zeros, everything else uses
// the shortest round-trip representation.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func typeName(kind int) string {
	switch kind {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// WritePrometheus writes the registry contents in Prometheus text
// exposition format: every registered metric plus one run of every
// collector. Families and series are emitted in sorted order; with a
// deterministic clock and identical event sequences the output is
// byte-identical across runs.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	sc := &Scrape{now: r.clock.Now()}
	r.mu.RLock()
	sc.samples = make([]sample, 0, 2*len(r.metrics))
	for _, m := range r.metrics {
		switch m.kind {
		case kindCounter:
			sc.Counter(m.name, m.help, m.ctr.Value())
		case kindGauge:
			sc.Gauge(m.name, m.help, m.gauge.Value())
		case kindRate:
			sc.Gauge(m.name, m.help, m.rate.Rate())
		case kindHistogram:
			sc.Histogram(m.name, m.help, m.hist.Snapshot())
		}
	}
	collectors := r.collectors
	r.mu.RUnlock()
	for _, collect := range collectors {
		collect(sc)
	}
	ss := sc.samples
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].family != ss[j].family {
			return ss[i].family < ss[j].family
		}
		return ss[i].name < ss[j].name
	})
	var b strings.Builder
	lastFamily := ""
	for _, s := range ss {
		if s.family != lastFamily {
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.family, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.family, typeName(s.kind))
			lastFamily = s.family
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", s.name, s.count)
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", s.name, fmtFloat(s.value))
		case kindHistogram:
			h := s.hist
			base, labels := splitLabels(s.name)
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLabel(labels, "le", fmtFloat(bound)), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLabel(labels, "le", "+Inf"), h.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", base, labels, fmtFloat(h.SumSecs))
			fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, h.Count)
		}
	}
	io.WriteString(w, b.String())
}

// splitLabels separates `name{a="b"}` into `name` and `{a="b"}`.
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel appends key="value" to an existing (possibly empty) label set.
func withLabel(labels, key, value string) string {
	extra := key + `="` + value + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
