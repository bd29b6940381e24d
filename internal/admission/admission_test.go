package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
)

// fakeEngine is a controllable Engine: per-call latency, an optional gate
// channel that blocks every call until released, and execution recording.
type fakeEngine struct {
	delay time.Duration
	gate  chan struct{} // when non-nil, each call receives once before running

	mu    sync.Mutex
	calls []fakeCall
	n     atomic.Int64

	// slowest is the longest the delay sleep actually took: a loaded box
	// stretches a nominal 2ms sleep several-fold, so latency bounds are
	// computed from this, never from delay.
	slowest time.Duration
}

type fakeCall struct {
	seg     segment.ID
	service string
	hashes  []uint32
	batch   int
}

func (f *fakeEngine) record(c fakeCall) {
	f.n.Add(1)
	f.mu.Lock()
	f.calls = append(f.calls, c)
	f.mu.Unlock()
}

func (f *fakeEngine) wait() {
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		begin := time.Now()
		time.Sleep(f.delay)
		took := time.Since(begin)
		f.mu.Lock()
		if took > f.slowest {
			f.slowest = took
		}
		f.mu.Unlock()
	}
}

func (f *fakeEngine) ObserveEditFPCtx(_ context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	f.wait()
	f.record(fakeCall{seg: seg, service: service, hashes: fp.Hashes()})
	return policy.Verdict{Decision: policy.DecisionAllow, Seg: seg, Service: service}, nil
}

func (f *fakeEngine) ObserveDocumentEditFPCtx(_ context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	f.wait()
	f.record(fakeCall{seg: doc, service: service, hashes: fp.Hashes()})
	return policy.Verdict{Decision: policy.DecisionAllow, Seg: doc, Service: service}, nil
}

func (f *fakeEngine) ObserveBatchFPCtx(_ context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error) {
	f.wait()
	f.record(fakeCall{service: service, batch: len(items)})
	out := make([]policy.Verdict, len(items))
	for i, item := range items {
		out[i] = policy.Verdict{Decision: policy.DecisionAllow, Seg: item.Seg, Service: service}
	}
	return out, nil
}

func fp(hashes ...uint32) *fingerprint.Fingerprint { return fingerprint.FromHashes(hashes) }

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestObservePassthrough(t *testing.T) {
	eng := &fakeEngine{}
	p, err := New(eng, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	v, err := p.Observe(context.Background(), "docs", "docs/d#p0", segment.GranularityParagraph, fp(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow || v.Seg != "docs/d#p0" {
		t.Fatalf("verdict = %+v", v)
	}
	if _, err := p.ObserveBatch(context.Background(), "docs", []disclosure.BatchObservation{
		{Seg: "docs/d#p1", FP: fp(4, 5), Granularity: segment.GranularityParagraph},
	}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Interactive.Executed != 1 || st.Bulk.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Keystroke states of the same segment queued behind a blocked worker fold
// into one engine call for the newest state, and every folded waiter
// receives that verdict.
func TestCoalesceFoldsQueuedKeystrokes(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	// Occupy the single worker with an unrelated segment.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		p.Observe(context.Background(), "docs", "docs/other#p0", segment.GranularityParagraph, fp(99))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })

	// Three keystroke states of one segment arrive while the worker is
	// busy: they must fold into a single queued job.
	var wg sync.WaitGroup
	verdicts := make([]policy.Verdict, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Observe(context.Background(), "docs", "docs/d#p0", segment.GranularityParagraph, fp(uint32(i+1)))
			if err != nil {
				t.Errorf("observe %d: %v", i, err)
				return
			}
			verdicts[i] = v
		}()
		waitFor(t, func() bool {
			st := p.Stats()
			return st.Interactive.Depth >= 1 && int(st.Folds) >= i
		})
	}
	if got := p.Stats().Folds; got != 2 {
		t.Fatalf("folds = %d, want 2", got)
	}

	eng.gate <- struct{}{} // release the blocker
	eng.gate <- struct{}{} // release the folded job
	<-blockerDone
	wg.Wait()

	// One engine call for the folded group, carrying the newest state.
	eng.mu.Lock()
	defer eng.mu.Unlock()
	var folded *fakeCall
	for i := range eng.calls {
		if eng.calls[i].seg == "docs/d#p0" {
			folded = &eng.calls[i]
		}
	}
	if folded == nil {
		t.Fatal("folded segment never executed")
	}
	if len(eng.calls) != 2 {
		t.Fatalf("engine calls = %d, want 2 (blocker + folded)", len(eng.calls))
	}
	if len(folded.hashes) != 1 || folded.hashes[0] != 3 {
		t.Fatalf("folded call hashes = %v, want the newest state [3]", folded.hashes)
	}
}

// A full interactive queue sheds new arrivals with an OverloadError whose
// Retry-After hint is clamped to the configured window; the queue depth
// never exceeds its cap.
func TestQueueFullSheds(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{
		Workers:          1,
		InteractiveQueue: 4,
		RetryAfterMin:    2 * time.Second,
		RetryAfterMax:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	// One executing + 4 queued (distinct segments, so no folding).
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Observe(context.Background(), "docs", segment.ID(fmt.Sprintf("docs/d#p%d", i)), segment.GranularityParagraph, fp(uint32(i)))
		}()
		if i == 0 {
			waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })
		} else {
			waitFor(t, func() bool { return p.Stats().Interactive.Depth == i })
		}
	}

	_, err = p.Observe(context.Background(), "docs", "docs/extra#p0", segment.GranularityParagraph, fp(42))
	oe, ok := AsOverload(err)
	if !ok {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if oe.Reason != ReasonQueueFull || oe.Lane != LaneInteractive {
		t.Fatalf("overload = %+v", oe)
	}
	if oe.RetryAfter < 2*time.Second || oe.RetryAfter > 10*time.Second {
		t.Fatalf("retry-after = %s outside clamp window", oe.RetryAfter)
	}
	st := p.Stats()
	if st.Interactive.MaxDepth > 4 {
		t.Fatalf("max depth %d exceeded cap 4", st.Interactive.MaxDepth)
	}
	if st.Interactive.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Interactive.Shed)
	}
	for i := 0; i < 5; i++ {
		eng.gate <- struct{}{}
	}
	wg.Wait()
}

// Adaptive shedding: long before the queue is full, a stale head-of-line
// item (dwell past the bound) sheds new arrivals.
func TestAdaptiveDwellShed(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{
		Workers:          1,
		InteractiveQueue: 1000,
		MaxDwell:         2 * time.Second,
		Obs:              obs.New(clk, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Observe(context.Background(), "docs", segment.ID(fmt.Sprintf("docs/d#p%d", i)), segment.GranularityParagraph, fp(uint32(i)))
		}()
		if i == 0 {
			waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })
		} else {
			waitFor(t, func() bool { return p.Stats().Interactive.Depth == 1 })
		}
	}

	// Queue has one item and plenty of free slots: admitted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Observe(context.Background(), "docs", "docs/d#p2", segment.GranularityParagraph, fp(7))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 2 })

	// Advance the clock past MaxDwell: the head item is stale, arrivals shed.
	clk.Advance(3 * time.Second)
	_, err = p.Observe(context.Background(), "docs", "docs/d#p3", segment.GranularityParagraph, fp(8))
	oe, ok := AsOverload(err)
	if !ok || oe.Reason != ReasonStale {
		t.Fatalf("err = %v, want stale-queue OverloadError", err)
	}
	// The hint reflects the measured backlog age (3s), not the floor.
	if oe.RetryAfter != 3*time.Second {
		t.Fatalf("retry-after = %s, want 3s (head dwell)", oe.RetryAfter)
	}

	for i := 0; i < 3; i++ {
		eng.gate <- struct{}{}
	}
	wg.Wait()
}

// Queued work whose every waiter expired is dropped, not executed.
func TestDeadlineDrop(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Observe(context.Background(), "docs", "docs/blocker#p0", segment.GranularityParagraph, fp(1))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := p.Observe(ctx, "docs", "docs/dead#p0", segment.GranularityParagraph, fp(2))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("expired waiter got %v, want context.Canceled", err)
		}
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 1 })
	cancel() // the only waiter gives up while queued

	eng.gate <- struct{}{} // release the blocker; the dead job is skipped
	wg.Wait()
	waitFor(t, func() bool { return p.Stats().Interactive.DeadlineDrops == 1 })

	if n := eng.n.Load(); n != 1 {
		t.Fatalf("engine calls = %d, want 1 (dead job must not execute)", n)
	}
}

// The interactive lane is served ahead of a deep bulk backlog.
func TestPriorityInteractiveFirst(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{Workers: 1, BulkQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	var wg sync.WaitGroup
	// Occupy the worker, then queue 3 bulk flushes and 1 interactive
	// observe (arriving last).
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Observe(context.Background(), "docs", "docs/blocker#p0", segment.GranularityParagraph, fp(1))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ObserveBatch(context.Background(), "docs", []disclosure.BatchObservation{
				{Seg: segment.ID(fmt.Sprintf("docs/bulk%d#p0", i)), FP: fp(uint32(10 + i))},
			})
		}()
		waitFor(t, func() bool { return p.Stats().Bulk.Depth == i+1 })
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Observe(context.Background(), "docs", "docs/urgent#p0", segment.GranularityParagraph, fp(2))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 1 })

	for i := 0; i < 5; i++ {
		eng.gate <- struct{}{}
	}
	wg.Wait()

	eng.mu.Lock()
	defer eng.mu.Unlock()
	// The urgent interactive observe must execute immediately after the
	// blocker, ahead of all three queued bulk flushes.
	if len(eng.calls) != 5 {
		t.Fatalf("calls = %d, want 5", len(eng.calls))
	}
	if eng.calls[1].seg != "docs/urgent#p0" {
		order := make([]string, len(eng.calls))
		for i, c := range eng.calls {
			order[i] = string(c.seg)
		}
		t.Fatalf("interactive not prioritised; order = %v", order)
	}
}

// The debounce window delays an idle observe so trailing keystrokes fold
// in even when workers are free: it runs once its window has passed on the
// pipeline's clock, and not a nanosecond before.
func TestCoalesceWindowDebounces(t *testing.T) {
	eng := &fakeEngine{}
	clk := clock.NewFake(time.Unix(1000, 0))
	p, err := New(eng, Config{Workers: 2, CoalesceWindow: 50 * time.Millisecond, Obs: obs.New(clk, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Observe(context.Background(), "docs", "docs/d#p0", segment.GranularityParagraph, fp(uint32(i+1)))
			if err != nil {
				t.Errorf("observe: %v", err)
			}
		}()
		if i == 0 {
			clk.WaitArmed(1)
		}
	}
	waitFor(t, func() bool { return p.Stats().Folds == 1 })
	clk.Advance(50*time.Millisecond - 1)
	if n := eng.n.Load(); n != 0 {
		t.Fatalf("engine calls = %d inside the debounce window", n)
	}
	clk.Advance(1)
	waitFor(t, func() bool { return eng.n.Load() == 1 })
	wg.Wait()
	if n := eng.n.Load(); n != 1 {
		t.Fatalf("engine calls = %d, want 1 (debounce window must fold)", n)
	}
	if p.Stats().Folds != 1 {
		t.Fatalf("folds = %d, want 1", p.Stats().Folds)
	}
}

// Close drains queued work through the engine before returning, and
// subsequent submissions are shed as draining.
func TestCloseDrains(t *testing.T) {
	eng := &fakeEngine{delay: 5 * time.Millisecond}
	p, err := New(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Observe(context.Background(), "docs", segment.ID(fmt.Sprintf("docs/d#p%d", i)), segment.GranularityParagraph, fp(uint32(i))); err != nil {
				t.Errorf("queued observe failed during drain: %v", err)
			}
		}()
	}
	waitFor(t, func() bool {
		st := p.Stats()
		return st.Interactive.Depth+int(st.Interactive.Executed) >= 8
	})

	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if n := eng.n.Load(); n != 8 {
		t.Fatalf("engine calls = %d, want all 8 drained", n)
	}

	_, err = p.Observe(context.Background(), "docs", "docs/late#p0", segment.GranularityParagraph, fp(9))
	if oe, ok := AsOverload(err); !ok || oe.Reason != ReasonDraining {
		t.Fatalf("post-close observe err = %v, want draining OverloadError", err)
	}
}

// A drain whose context expires force-fails stranded waiters instead of
// hanging.
func TestCloseTimeoutStrandsCleanly(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	p, err := New(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = p.Observe(context.Background(), "docs", segment.ID(fmt.Sprintf("docs/d#p%d", i)), segment.GranularityParagraph, fp(uint32(i)))
		}()
	}
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close(ctx) }()

	select {
	case err := <-closeErr:
		if err == nil {
			t.Fatal("close succeeded with a wedged worker")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close hung past its context")
	}
	close(eng.gate) // un-wedge the worker so it can exit
	wg.Wait()

	var stranded int
	for _, err := range errs {
		if oe, ok := AsOverload(err); ok && oe.Reason == ReasonDraining {
			stranded++
		}
	}
	if stranded != 2 {
		t.Fatalf("stranded waiters = %d, want 2", stranded)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
