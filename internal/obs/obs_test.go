package obs

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func newFakeClock() *clock.Fake { return clock.NewFake(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) }

// populate drives a fixed event sequence into a registry. Called twice
// in the determinism test to prove byte-identical output.
func populate(reg *Registry, clk *clock.Fake) {
	obsv := reg.Counter("bf_engine_observe_total", "Engine observe calls.")
	obsv.Add(41)
	obsv.Inc()
	reg.Counter(`bf_http_requests_total{endpoint="observe",code="200"}`, "HTTP requests.").Add(7)
	reg.Counter(`bf_http_requests_total{endpoint="check",code="503"}`, "HTTP requests.").Add(2)
	reg.Gauge("bf_wal_checkpoint_age_seconds", "Seconds since last checkpoint.").Set(12.5)
	reg.Collect(func(s *Scrape) { s.Gauge("bf_breaker_state", "Circuit breaker state.", 1) })
	h := reg.Histogram(`bf_http_request_seconds{endpoint="observe"}`, "Request latency.", nil)
	h.Observe(0)                      // zero lands in the first bucket
	h.Observe(100 * time.Microsecond) // exact first boundary
	h.Observe(3 * time.Millisecond)
	h.Observe(70 * time.Millisecond)
	h.Observe(42 * time.Second) // overflow bucket
	rw := reg.RateWindow("bf_observe_rate", "Observes per second.", 10)
	for i := 0; i < 30; i++ {
		rw.Mark()
	}
	clk.Advance(time.Second)
	rw.MarkN(10)
	clk.Advance(time.Second) // both marked seconds are now complete
}

func exposition(t *testing.T) string {
	t.Helper()
	clk := newFakeClock()
	reg := newRegistry(clk)
	populate(reg, clk)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return buf.String()
}

// TestPrometheusGolden locks the full exposition format against a
// golden file: family grouping, sorted series, histogram cumulative
// buckets, float formatting, rate windows.
func TestPrometheusGolden(t *testing.T) {
	got := exposition(t)
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministic is the acceptance-criteria check: two
// independent registries fed identical events under identical fake
// clocks produce byte-identical /v1/metrics output.
func TestPrometheusDeterministic(t *testing.T) {
	a := exposition(t)
	b := exposition(t)
	if a != b {
		t.Fatalf("two fake-clock runs differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty exposition")
	}
}

// TestCollectorContract pins what Registry.Collect promises a subsystem
// that exports one stats struct: the collector runs exactly once per
// scrape, reads the registry clock through Scrape.Now, and its typed
// samples are sorted into the exposition beside the registered metrics.
func TestCollectorContract(t *testing.T) {
	clk := newFakeClock()
	reg := newRegistry(clk)
	reg.Counter("bf_b_total", "Registered.").Add(2)
	started := clk.Now()
	clk.Advance(90 * time.Second)
	hist := NewHistogram([]float64{0.001, 1})
	hist.Observe(time.Millisecond)
	hist.Observe(3 * time.Second)
	runs := 0
	reg.Collect(func(s *Scrape) {
		runs++
		s.Gauge("bf_c_age_seconds", "Collected gauge.", s.Now().Sub(started).Seconds())
		s.Counter(`bf_a_total{lane="x"}`, "Collected counter.", 7)
		s.Histogram("bf_d_seconds", "Collected histogram.", hist.Snapshot())
	})
	const want = `# HELP bf_a_total Collected counter.
# TYPE bf_a_total counter
bf_a_total{lane="x"} 7
# HELP bf_b_total Registered.
# TYPE bf_b_total counter
bf_b_total 2
# HELP bf_c_age_seconds Collected gauge.
# TYPE bf_c_age_seconds gauge
bf_c_age_seconds 90
# HELP bf_d_seconds Collected histogram.
# TYPE bf_d_seconds histogram
bf_d_seconds_bucket{le="0.001"} 1
bf_d_seconds_bucket{le="1"} 1
bf_d_seconds_bucket{le="+Inf"} 2
bf_d_seconds_sum 3.001
bf_d_seconds_count 2
`
	for scrape := 1; scrape <= 2; scrape++ {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		if buf.String() != want {
			t.Fatalf("scrape %d:\n--- got ---\n%s--- want ---\n%s", scrape, buf.String(), want)
		}
		if runs != scrape {
			t.Fatalf("collector ran %d times over %d scrapes", runs, scrape)
		}
	}
}

// TestHistogramBoundaries pins the le semantics at bucket edges: a
// value exactly on a boundary belongs to that boundary's bucket, zero
// belongs to the first bucket, and values beyond the last bound go to
// the overflow cell.
func TestHistogramBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0)                      // -> bucket le=0.001
	h.Observe(time.Millisecond)       // exactly 0.001 -> bucket le=0.001
	h.Observe(time.Millisecond + 1)   // just over -> le=0.01
	h.Observe(10 * time.Millisecond)  // exactly 0.01 -> le=0.01
	h.Observe(100 * time.Millisecond) // exactly 0.1 -> le=0.1
	h.Observe(time.Second)            // overflow
	s := h.Snapshot()
	wantCounts := []uint64{2, 2, 1, 1}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Errorf("Count %d != sum of buckets %d", s.Count, sum)
	}
	wantSum := (0 + 0.001 + 0.001000001 + 0.01 + 0.1 + 1.0)
	if diff := s.SumSecs - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SumSecs = %v, want %v", s.SumSecs, wantSum)
	}
}

// TestRateWindowRollover drives a rate window across slot boundaries
// with a fake clock and checks the reported rate as events age in and
// out of the window.
func TestRateWindowRollover(t *testing.T) {
	clk := newFakeClock()
	w := newRateWindow(clk, 4)

	w.MarkN(8) // second 0, still in progress
	if got := w.Rate(); got != 0 {
		t.Fatalf("in-progress second counted: rate = %v, want 0", got)
	}
	clk.Advance(time.Second) // second 0 complete
	if got := w.Rate(); got != 2 {
		t.Fatalf("after 1s: rate = %v, want 2 (8 events / 4s window)", got)
	}
	w.MarkN(4)               // second 1
	clk.Advance(time.Second) // seconds 0+1 complete: 12 events
	if got := w.Rate(); got != 3 {
		t.Fatalf("after 2s: rate = %v, want 3", got)
	}
	// Advance until second 0 ages out: window covers seconds [1..4].
	clk.Advance(3 * time.Second)
	if got := w.Rate(); got != 1 {
		t.Fatalf("after rollover: rate = %v, want 1 (only the 4-event second remains)", got)
	}
	// And fully out.
	clk.Advance(4 * time.Second)
	if got := w.Rate(); got != 0 {
		t.Fatalf("after full drain: rate = %v, want 0", got)
	}
	// Slot reuse: the ring wraps and old epochs are reclaimed.
	w.MarkN(20)
	clk.Advance(time.Second)
	if got := w.Rate(); got != 5 {
		t.Fatalf("after reuse: rate = %v, want 5", got)
	}
}

// TestCounterStriping checks that values accumulated across stripes sum
// correctly and remain monotone.
func TestCounterStriping(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

// TestTraceContext checks ID propagation, span recording with the fake
// clock, inert handles without a trace, and ring-buffer eviction.
func TestTraceContext(t *testing.T) {
	clk := newFakeClock()
	log := newTraceLog(clk, 4)

	// No trace in ctx: handle is inert.
	sp := StartSpan(context.Background(), "noop")
	sp.End(nil)
	if got := len(log.Snapshot()); got != 0 {
		t.Fatalf("inert span recorded: %d spans", got)
	}

	ctx := WithTrace(context.Background(), "bf-test", log)
	if got := TraceID(ctx); got != "bf-test" {
		t.Fatalf("TraceID = %q", got)
	}
	sp = StartSpan(ctx, "engine.observe")
	sp.SetAttr("hashes", "12")
	clk.Advance(7 * time.Millisecond)
	sp.End(nil)

	sp2 := StartSpan(ctx, "wal.append")
	clk.Advance(3 * time.Millisecond)
	sp2.End(errors.New("disk full"))

	spans := log.Query("bf-test")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "engine.observe" || spans[0].Duration != 7*time.Millisecond {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[0].Attrs["hashes"] != "12" {
		t.Errorf("span 0 attrs = %v", spans[0].Attrs)
	}
	if spans[1].Err != "disk full" || spans[1].Duration != 3*time.Millisecond {
		t.Errorf("span 1 = %+v", spans[1])
	}

	// Eviction: capacity 4, push 5 more spans, oldest must fall out.
	for i := 0; i < 5; i++ {
		RecordSpan(ctx, "filler", clk.Now(), time.Millisecond, nil, nil)
	}
	all := log.Snapshot()
	if len(all) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(all))
	}
	for _, s := range all {
		if s.Name == "engine.observe" {
			t.Fatal("oldest span not evicted")
		}
	}
}

// TestNewTraceIDUniqueness mints a batch of IDs and checks format and
// uniqueness; with a fake clock the sequence is reproducible.
func TestNewTraceIDUniqueness(t *testing.T) {
	clk := newFakeClock()
	o := New(clk, 16)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := o.NewTraceID()
		if !strings.HasPrefix(id, "bf-") || len(id) != 19 {
			t.Fatalf("bad trace ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
	// Reproducible under the same fake clock.
	o2 := New(newFakeClock(), 16)
	if a, b := o2.NewTraceID(), New(newFakeClock(), 16).NewTraceID(); a != b {
		t.Fatalf("fake-clock trace IDs not reproducible: %q vs %q", a, b)
	}
}

// TestNilObsSafe exercises every entry point on a nil *Obs.
func TestNilObsSafe(t *testing.T) {
	var o *Obs
	if o.Registry() != nil || o.Traces() != nil {
		t.Fatal("nil Obs returned non-nil components")
	}
	if id := o.NewTraceID(); id != "" {
		t.Fatalf("nil Obs minted ID %q", id)
	}
	var nilReg *Registry
	nilReg.Counter("x", "").Inc()
	nilReg.Gauge("x", "").Set(1)
	nilReg.Collect(func(*Scrape) { t.Error("collector ran on a nil registry") })
	nilReg.Histogram("x", "", nil).Observe(time.Millisecond)
	nilReg.RateWindow("x", "", 5).Mark()
	var buf bytes.Buffer
	nilReg.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
	var nilLog *TraceLog
	nilLog.Record(Span{})
	if nilLog.Snapshot() != nil || nilLog.Query("x") != nil {
		t.Fatal("nil trace log returned spans")
	}
}
