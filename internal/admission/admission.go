// Package admission is the overload-robust ingestion pipeline in front of
// the policy engine. At production scale the dominant traffic is the docs
// editor's per-keystroke observe stream (§5): millions of tiny, bursty
// requests whose verdicts are superseded milliseconds later by the next
// keystroke. Left unmanaged, that stream either collapses the engine or —
// worse — buffers without bound until the process dies. The pipeline makes
// overload an explicit, bounded, observable state instead:
//
//   - Priority lanes. Interactive disclosure checks (single observes on the
//     per-keystroke path) are served ahead of bulk traffic (batched
//     re-index flushes). Under saturation the bulk lane degrades first, by
//     design: a delayed re-index is an inconvenience, a delayed disclosure
//     warning is a policy failure.
//   - Per-document coalescing. Observing a segment is last-write-wins on
//     its content, so N queued keystroke states of one segment fold into a
//     single engine call for the newest state; every folded waiter receives
//     that verdict. A fold is indistinguishable from the user having typed
//     slower — the engine sees a subsequence of the segment's states — so
//     coalesced verdicts are byte-identical to an unbatched engine fed the
//     same subsequence. An optional debounce window holds a fresh observe
//     eligible-but-waiting so the following keystrokes can fold in even on
//     an idle server.
//   - Bounded queues with explicit load shedding. Each lane has a hard
//     depth cap; arrivals past it are rejected immediately with an
//     *OverloadError carrying a Retry-After hint (HTTP 429 upstream),
//     never buffered. Memory is bounded by cap × item size.
//   - Adaptive shedding. Before the queue is full, arrivals are shed when
//     the head-of-line item has waited longer than the lane's dwell bound —
//     a full queue that is also stale means the engine is not keeping up,
//     and admitting more work only manufactures deadline misses. The bulk
//     lane's dwell bound is a fraction of the interactive one, so bulk
//     sheds first. The same measured quantities drive the obs gauges
//     (queue depth, shed rate, lane latency histograms).
//   - Deadline propagation. Every waiter carries its request context; work
//     whose waiters have all expired by execution time is dropped, not
//     executed — the verdict would be undeliverable.
//   - Graceful drain. Close stops admitting, lets the workers finish every
//     queued item (so accepted-but-queued observes reach the journal before
//     the WAL closes), and only force-fails the remainder when the drain
//     context expires.
package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
)

// Lane identifies a priority class.
type Lane int

const (
	// LaneInteractive carries per-keystroke observes and other
	// latency-sensitive disclosure checks. It is served first.
	LaneInteractive Lane = iota

	// LaneBulk carries batched flushes and re-index traffic. It degrades
	// first under load.
	LaneBulk

	numLanes
)

// String implements fmt.Stringer.
func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBulk:
		return "bulk"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

// Engine is the subset of the policy engine the pipeline drives.
// *policy.Engine satisfies it; tests substitute slow or blocking fakes.
type Engine interface {
	ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error)
	ObserveDocumentEditFPCtx(ctx context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error)
	ObserveBatchFPCtx(ctx context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error)
}

// Reasons a request is shed, carried on OverloadError and used as the
// obs shed-counter label.
const (
	// ReasonQueueFull: the lane's bounded queue is at capacity.
	ReasonQueueFull = "queue-full"

	// ReasonStale: adaptive shed — the lane's head-of-line item has waited
	// past the dwell bound, so the engine is not draining fast enough for
	// a new arrival to meet any reasonable deadline.
	ReasonStale = "queue-stale"

	// ReasonDraining: the pipeline is shutting down and admits no new work.
	ReasonDraining = "draining"
)

// OverloadError reports that the pipeline shed a request instead of
// queueing it. RetryAfter is the server's advice on when capacity is
// likely to exist again (HTTP Retry-After upstream).
type OverloadError struct {
	Lane       Lane
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("admission: %s lane overloaded (%s), retry after %s", e.Lane, e.Reason, e.RetryAfter)
}

// AsOverload unwraps an OverloadError from err, if present.
func AsOverload(err error) (*OverloadError, bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}

// ErrClosed is returned by Submit paths after Close has completed.
var ErrClosed = errors.New("admission: pipeline closed")

// Config tunes a Pipeline. The zero value gets production defaults.
type Config struct {
	// CoalesceWindow holds a freshly queued interactive observe back this
	// long so later keystrokes of the same segment can fold into it.
	// 0 disables debouncing: folding still happens whenever a same-segment
	// observe is queued behind a backlog, which costs idle traffic nothing.
	CoalesceWindow time.Duration

	// InteractiveQueue caps the interactive lane depth (default 4096).
	InteractiveQueue int

	// BulkQueue caps the bulk lane depth in flushes, not items
	// (default 256).
	BulkQueue int

	// Workers is the engine-call concurrency (default GOMAXPROCS).
	Workers int

	// MaxDwell is the interactive lane's adaptive-shed bound: when the
	// head-of-line item is older than this, new interactive arrivals are
	// shed (default 2s).
	MaxDwell time.Duration

	// BulkMaxDwell is the bulk lane's bound (default MaxDwell/4), so bulk
	// sheds before interactive capacity is threatened.
	BulkMaxDwell time.Duration

	// RetryAfterMin / RetryAfterMax clamp the Retry-After hint
	// (defaults 1s / 30s).
	RetryAfterMin time.Duration
	RetryAfterMax time.Duration

	// Obs, when set, registers queue-depth gauges, shed/fold counters and
	// per-lane wait/exec latency histograms in the bundle's registry. The
	// pipeline reads its clock (the real one when nil).
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.InteractiveQueue <= 0 {
		c.InteractiveQueue = 4096
	}
	if c.BulkQueue <= 0 {
		c.BulkQueue = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxDwell <= 0 {
		c.MaxDwell = 2 * time.Second
	}
	if c.BulkMaxDwell <= 0 {
		c.BulkMaxDwell = c.MaxDwell / 4
	}
	if c.RetryAfterMin <= 0 {
		c.RetryAfterMin = time.Second
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = 30 * time.Second
	}
	return c
}

// result is what a waiter receives: a single verdict (interactive) or a
// verdict slice (bulk), or an error.
type result struct {
	verdict policy.Verdict
	batch   []policy.Verdict
	err     error
}

// waiter is one blocked caller attached to a job. Folded jobs carry many.
type waiter struct {
	ctx  context.Context
	done chan result // buffered 1; the worker never blocks on delivery
}

type coalesceKey struct {
	service string
	seg     segment.ID
	gran    segment.Granularity
}

// job is one unit of queued work: a (possibly folded) interactive observe
// or a bulk flush.
type job struct {
	lane    Lane
	key     coalesceKey
	fp      *fingerprint.Fingerprint
	service string
	batch   []disclosure.BatchObservation

	enqueued time.Time
	readyAt  time.Time
	waiters  []*waiter
	folds    int
}

// laneState is one bounded FIFO plus its counters.
type laneState struct {
	queue    []*job // FIFO; index 0 is the head
	cap      int
	maxDwell time.Duration

	submitted     uint64
	executed      uint64
	shed          uint64
	deadlineDrops uint64
	maxDepth      int

	waitHist *obs.Histogram
	execHist *obs.Histogram
}

// LaneStats is a point-in-time view of one lane.
type LaneStats struct {
	// Depth is the current queue length; it never exceeds Cap — the
	// pipeline's bounded-memory guarantee.
	Depth int

	// Cap is the configured queue bound.
	Cap int

	// MaxDepth is the high-water mark since start.
	MaxDepth int

	// Submitted counts admitted jobs (folds are not re-submissions).
	Submitted uint64

	// Executed counts engine calls made for this lane.
	Executed uint64

	// Shed counts arrivals rejected with an OverloadError.
	Shed uint64

	// DeadlineDrops counts queued jobs skipped because every waiter's
	// context had expired before execution.
	DeadlineDrops uint64
}

// Stats is a point-in-time view of the pipeline.
type Stats struct {
	Interactive LaneStats
	Bulk        LaneStats

	// Folds counts keystroke observes folded into an already-queued
	// observe of the same segment.
	Folds uint64

	// Draining reports that Close has begun.
	Draining bool
}

// Lane returns the stats for one lane.
func (s Stats) Lane(l Lane) LaneStats {
	if l == LaneBulk {
		return s.Bulk
	}
	return s.Interactive
}

// Pipeline is the admission control layer. It is safe for concurrent use.
type Pipeline struct {
	engine Engine
	cfg    Config
	clock  clock.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	lanes    [numLanes]*laneState
	pending  map[coalesceKey]*job // queued (not yet executing) interactive observes
	folds    uint64
	draining bool
	closed   bool
	rr       uint64 // dequeue round counter for bulk anti-starvation

	wg sync.WaitGroup

	shedCtr map[string]*obs.Counter
	foldCtr *obs.Counter
	dropCtr *obs.Counter
}

// New builds a Pipeline over engine and starts its workers.
func New(engine Engine, cfg Config) (*Pipeline, error) {
	if engine == nil {
		return nil, fmt.Errorf("admission: engine is required")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{
		engine:  engine,
		cfg:     cfg,
		clock:   cfg.Obs.Clock(),
		pending: make(map[coalesceKey]*job),
	}
	p.cond = sync.NewCond(&p.mu)
	p.lanes[LaneInteractive] = &laneState{cap: cfg.InteractiveQueue, maxDwell: cfg.MaxDwell}
	p.lanes[LaneBulk] = &laneState{cap: cfg.BulkQueue, maxDwell: cfg.BulkMaxDwell}
	p.registerObs()
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// registerObs publishes the pipeline's health in the obs registry. Nil-safe:
// without a bundle the metric objects are detached no-ops.
func (p *Pipeline) registerObs() {
	reg := p.cfg.Obs.Registry()
	p.shedCtr = make(map[string]*obs.Counter)
	for lane := Lane(0); lane < numLanes; lane++ {
		for _, reason := range []string{ReasonQueueFull, ReasonStale, ReasonDraining} {
			name := fmt.Sprintf("bf_admission_shed_total{lane=%q,reason=%q}", lane.String(), reason)
			p.shedCtr[lane.String()+"/"+reason] = reg.Counter(name,
				"Requests shed by the admission pipeline, by lane and reason.")
		}
		p.lanes[lane].waitHist = reg.Histogram(
			fmt.Sprintf("bf_admission_queue_wait_seconds{lane=%q}", lane.String()),
			"Time jobs spend queued before the engine call starts.", nil)
		p.lanes[lane].execHist = reg.Histogram(
			fmt.Sprintf("bf_admission_exec_seconds{lane=%q}", lane.String()),
			"Engine execution time for admitted jobs.", nil)
	}
	p.foldCtr = reg.Counter("bf_admission_folds_total",
		"Keystroke observes folded into an already-queued observe of the same segment.")
	p.dropCtr = reg.Counter("bf_admission_deadline_drops_total",
		"Queued jobs dropped because every waiter's deadline expired before execution.")
	reg.Collect(func(e *obs.Scrape) {
		st := p.Stats()
		for lane := Lane(0); lane < numLanes; lane++ {
			e.Gauge(fmt.Sprintf("bf_admission_queue_depth{lane=%q}", lane.String()),
				"Current admission queue depth by lane.", float64(st.Lane(lane).Depth))
		}
	})
}

// Observe submits one per-keystroke observe on the interactive lane and
// blocks until its (possibly folded) verdict is computed, the context
// expires, or the pipeline sheds it.
func (p *Pipeline) Observe(ctx context.Context, service string, seg segment.ID, gran segment.Granularity, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	if gran == 0 {
		gran = segment.GranularityParagraph
	}
	w := &waiter{ctx: ctx, done: make(chan result, 1)}
	now := p.clock.Now()

	p.mu.Lock()
	if p.draining {
		p.shedLocked(LaneInteractive, ReasonDraining)
		p.mu.Unlock()
		return policy.Verdict{}, &OverloadError{Lane: LaneInteractive, Reason: ReasonDraining, RetryAfter: p.cfg.RetryAfterMin}
	}
	key := coalesceKey{service: service, seg: seg, gran: gran}
	if j, ok := p.pending[key]; ok {
		// Fold: the newest keystroke state supersedes the queued one; all
		// waiters get the verdict for the newest state. The job keeps its
		// queue position, so folding never extends head-of-line dwell.
		j.fp = fp
		j.waiters = append(j.waiters, w)
		j.folds++
		p.folds++
		p.foldCtr.Inc()
		p.mu.Unlock()
	} else {
		if err := p.admitLocked(LaneInteractive, now); err != nil {
			p.mu.Unlock()
			return policy.Verdict{}, err
		}
		j := &job{
			lane:     LaneInteractive,
			key:      key,
			fp:       fp,
			service:  service,
			enqueued: now,
			readyAt:  now,
			waiters:  []*waiter{w},
		}
		if p.cfg.CoalesceWindow > 0 {
			j.readyAt = now.Add(p.cfg.CoalesceWindow)
			// Wake a worker when the debounce window elapses; the worker
			// re-checks readiness against the same clock.
			p.clock.AfterFunc(p.cfg.CoalesceWindow, p.cond.Broadcast)
		}
		p.pushLocked(j)
		p.mu.Unlock()
	}

	select {
	case r := <-w.done:
		return r.verdict, r.err
	case <-ctx.Done():
		return policy.Verdict{}, ctx.Err()
	}
}

// ObserveBatch submits a coalesced flush on the bulk lane and blocks until
// its verdicts are computed, the context expires, or the pipeline sheds it.
func (p *Pipeline) ObserveBatch(ctx context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error) {
	w := &waiter{ctx: ctx, done: make(chan result, 1)}
	now := p.clock.Now()

	p.mu.Lock()
	if p.draining {
		p.shedLocked(LaneBulk, ReasonDraining)
		p.mu.Unlock()
		return nil, &OverloadError{Lane: LaneBulk, Reason: ReasonDraining, RetryAfter: p.cfg.RetryAfterMin}
	}
	if err := p.admitLocked(LaneBulk, now); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	j := &job{
		lane:     LaneBulk,
		service:  service,
		batch:    items,
		enqueued: now,
		readyAt:  now,
		waiters:  []*waiter{w},
	}
	p.pushLocked(j)
	p.mu.Unlock()

	select {
	case r := <-w.done:
		return r.batch, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitLocked decides whether a new arrival may join lane's queue,
// returning an *OverloadError when it must be shed. Caller holds p.mu.
func (p *Pipeline) admitLocked(lane Lane, now time.Time) error {
	ls := p.lanes[lane]
	if len(ls.queue) >= ls.cap {
		p.shedLocked(lane, ReasonQueueFull)
		return &OverloadError{Lane: lane, Reason: ReasonQueueFull, RetryAfter: p.retryAfterLocked(lane, now)}
	}
	// Adaptive shed: a head-of-line item older than the dwell bound means
	// the lane is not draining; admitting more work only queues deadline
	// misses. The bulk lane's bound is tighter, so it degrades first.
	if len(ls.queue) > 0 {
		if dwell := now.Sub(ls.queue[0].enqueued); dwell > ls.maxDwell {
			p.shedLocked(lane, ReasonStale)
			return &OverloadError{Lane: lane, Reason: ReasonStale, RetryAfter: p.retryAfterLocked(lane, now)}
		}
	}
	return nil
}

// retryAfterLocked estimates when capacity will exist again: the time the
// current head-of-line item has already waited is a live measurement of the
// backlog's age, clamped to the configured window. Caller holds p.mu.
func (p *Pipeline) retryAfterLocked(lane Lane, now time.Time) time.Duration {
	est := p.cfg.RetryAfterMin
	if q := p.lanes[lane].queue; len(q) > 0 {
		if dwell := now.Sub(q[0].enqueued); dwell > est {
			est = dwell
		}
	}
	if est > p.cfg.RetryAfterMax {
		est = p.cfg.RetryAfterMax
	}
	return est
}

func (p *Pipeline) shedLocked(lane Lane, reason string) {
	p.lanes[lane].shed++
	if c := p.shedCtr[lane.String()+"/"+reason]; c != nil {
		c.Inc()
	}
}

func (p *Pipeline) pushLocked(j *job) {
	ls := p.lanes[j.lane]
	ls.queue = append(ls.queue, j)
	ls.submitted++
	if d := len(ls.queue); d > ls.maxDepth {
		ls.maxDepth = d
	}
	if j.lane == LaneInteractive && j.key != (coalesceKey{}) {
		p.pending[j.key] = j
	}
	p.cond.Signal()
}

// nextLocked pops the next eligible job, preferring the interactive lane.
// Every eighth dequeue offers the bulk lane first so sustained interactive
// saturation degrades bulk to a trickle rather than total starvation.
// Returns nil when no job is eligible; a debouncing job's timer wakes the
// workers when it becomes ready. Caller holds p.mu.
func (p *Pipeline) nextLocked(now time.Time) *job {
	order := [2]Lane{LaneInteractive, LaneBulk}
	if p.rr%8 == 7 {
		order = [2]Lane{LaneBulk, LaneInteractive}
	}
	for _, lane := range order {
		ls := p.lanes[lane]
		if len(ls.queue) == 0 {
			continue
		}
		head := ls.queue[0]
		if head.readyAt.After(now) && !p.draining {
			// Still inside its debounce window (drain ignores windows —
			// folding opportunities are over).
			continue
		}
		ls.queue[0] = nil
		ls.queue = ls.queue[1:]
		if lane == LaneInteractive && head.key != (coalesceKey{}) {
			delete(p.pending, head.key)
		}
		p.rr++ // count successful dequeues only, so lane order is deterministic
		return head
	}
	return nil
}

// worker drains the lanes until the pipeline closes.
func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var j *job
		for {
			if p.closed {
				p.mu.Unlock()
				return
			}
			if j = p.nextLocked(p.clock.Now()); j != nil {
				break
			}
			if p.draining && p.queuesEmptyLocked() {
				// Drained: wake Close and any sibling workers, then exit.
				p.cond.Broadcast()
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		ls := p.lanes[j.lane]
		ls.executed++
		p.mu.Unlock()
		p.execute(j)
	}
}

func (p *Pipeline) queuesEmptyLocked() bool {
	for _, ls := range p.lanes {
		if len(ls.queue) > 0 {
			return false
		}
	}
	return true
}

// execute runs one job against the engine and fans the result out to every
// waiter that is still alive.
func (p *Pipeline) execute(j *job) {
	// Deadline propagation: waiters whose context expired while the job
	// was queued no longer want the answer. If none remain, the work is
	// dropped, not executed.
	live := j.waiters[:0]
	for _, w := range j.waiters {
		if w.ctx.Err() == nil {
			live = append(live, w)
		}
	}
	j.waiters = live
	if len(live) == 0 {
		p.mu.Lock()
		p.lanes[j.lane].executed-- // it never reached the engine
		p.lanes[j.lane].deadlineDrops++
		p.mu.Unlock()
		p.dropCtr.Inc()
		return
	}

	start := p.clock.Now()
	if h := p.lanes[j.lane].waitHist; h != nil {
		h.Observe(start.Sub(j.enqueued))
	}
	// Execute under the first live waiter's values (trace context) but
	// detached from its cancellation: folded siblings may outlive it.
	ctx := context.WithoutCancel(live[0].ctx)
	var r result
	if j.lane == LaneBulk {
		r.batch, r.err = p.engine.ObserveBatchFPCtx(ctx, j.service, j.batch)
	} else if j.key.gran == segment.GranularityDocument {
		r.verdict, r.err = p.engine.ObserveDocumentEditFPCtx(ctx, j.key.seg, j.service, j.fp)
	} else {
		r.verdict, r.err = p.engine.ObserveEditFPCtx(ctx, j.key.seg, j.service, j.fp)
	}
	if h := p.lanes[j.lane].execHist; h != nil {
		h.Observe(p.clock.Now().Sub(start))
	}
	for _, w := range live {
		w.done <- r // buffered; never blocks
	}
}

// Stats returns a point-in-time snapshot.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	mk := func(l Lane) LaneStats {
		ls := p.lanes[l]
		return LaneStats{
			Depth:         len(ls.queue),
			Cap:           ls.cap,
			MaxDepth:      ls.maxDepth,
			Submitted:     ls.submitted,
			Executed:      ls.executed,
			Shed:          ls.shed,
			DeadlineDrops: ls.deadlineDrops,
		}
	}
	return Stats{
		Interactive: mk(LaneInteractive),
		Bulk:        mk(LaneBulk),
		Folds:       p.folds,
		Draining:    p.draining,
	}
}

// Draining reports whether Close has begun.
func (p *Pipeline) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Close stops admitting new work, drains everything already queued through
// the engine, and stops the workers. Jobs still queued when ctx expires are
// force-failed with a draining OverloadError. Safe to call more than once.
//
// Callers that journal mutations must Close the pipeline BEFORE closing
// the durability layer: drain is what guarantees accepted-but-queued
// observes reach the WAL on SIGTERM.
func (p *Pipeline) Close(ctx context.Context) error {
	p.mu.Lock()
	if p.closed && p.queuesEmptyLocked() {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()

	select {
	case <-done:
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		return nil
	case <-ctx.Done():
		// Force-stop: fail whatever is still queued so no waiter hangs.
		p.mu.Lock()
		p.closed = true
		var stranded []*waiter
		for lane, ls := range p.lanes {
			for _, j := range ls.queue {
				stranded = append(stranded, j.waiters...)
				p.shedLocked(Lane(lane), ReasonDraining)
			}
			ls.queue = nil
		}
		p.pending = make(map[coalesceKey]*job)
		p.cond.Broadcast()
		p.mu.Unlock()
		for _, w := range stranded {
			w.done <- result{err: &OverloadError{Lane: LaneInteractive, Reason: ReasonDraining, RetryAfter: p.cfg.RetryAfterMin}}
		}
		// Do not wait for the workers here: one may be wedged inside an
		// engine call, which is exactly why the drain context expired.
		return fmt.Errorf("admission: drain aborted with work queued: %w", ctx.Err())
	}
}
