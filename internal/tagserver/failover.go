package tagserver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// DegradedTag marks fail-closed block verdicts issued while the tag
// service is unreachable, so users (and audit trails) can tell an outage
// block from a policy block.
const DegradedTag = tdm.Tag("bf:degraded")

// DegradedEvent reports one decision taken without the tag service.
type DegradedEvent struct {
	// Op is the decision point: "observe", "check", or "upload".
	Op string

	// Seg is the involved segment (empty for ad-hoc checks).
	Seg segment.ID

	// Service is the destination or hosting service.
	Service string

	// Mode is the enforcement mode that chose the fallback.
	Mode policy.Mode

	// Err is the failure that triggered degradation (resilience.
	// ErrCircuitOpen when the breaker short-circuited the call).
	Err error

	// Queued reports whether an observation was buffered for replay.
	Queued bool
}

// FailoverConfig configures a FailoverEngine.
type FailoverConfig struct {
	// Client is the connection to the shared tag service (required).
	Client *Client

	// Mode selects the degradation posture: advisory fails open (allow +
	// audit), enforcing and encrypting fail closed for release checks
	// (block) while still allowing local edits.
	Mode policy.Mode

	// Breaker guards the remote path. Nil gets a default breaker
	// (5 consecutive failures, 10s cooldown, single half-open trial).
	Breaker *resilience.Breaker

	// Audit, if set, receives a degraded entry per fallback decision and
	// a recovered entry when the service comes back.
	Audit *audit.Log

	// QueueLimit bounds the observation replay queue (default 1024).
	// When full, new observations are counted as dropped rather than
	// evicting older ones, preserving replay order and exactly-once
	// delivery of everything that was accepted.
	QueueLimit int

	// OnDegraded, if set, observes every fallback decision. It may be
	// called concurrently.
	OnDegraded func(DegradedEvent)

	// ProbeInterval, when positive, starts a background prober that
	// calls Probe while the engine is degraded. Zero leaves probing to
	// the caller (tests drive Probe manually; daemons set an interval).
	ProbeInterval time.Duration

	// CallTimeout bounds each remote call the engine makes (default
	// DefaultClientTimeout; the client's own timeout still applies).
	CallTimeout time.Duration
}

// FailoverStats snapshots a FailoverEngine.
type FailoverStats struct {
	// BreakerState is the guard's current state.
	BreakerState resilience.State

	// QueueLen is the number of buffered observations awaiting replay.
	QueueLen int

	// Degraded counts fallback decisions taken without the service.
	Degraded int64

	// Replayed counts buffered observations delivered after recovery.
	Replayed int64

	// Dropped counts observations lost to a full replay queue.
	Dropped int64

	// Recoveries counts degraded -> healthy transitions.
	Recoveries int64
}

// replayItem is one buffered observation. Only fingerprint hashes are
// held — the text itself is discarded immediately, preserving the
// on-device privacy posture even in the buffer.
type replayItem struct {
	service     string
	seg         segment.ID
	hashes      []uint32
	granularity string
}

// FailoverEngine is the device's plug-in engine against the shared tag
// service: it implements intercept.Engine over a Client (one node or a
// replication group), so decisions are made by the enterprise service
// instead of a device-local database, with mode-aware graceful
// degradation. While the circuit breaker is open (or the service is
// failing):
//
//   - local edits are always allowed; their observations are buffered in
//     a replay queue that drains to the server, in order, on recovery;
//   - release checks (CheckText, CheckUpload) fail OPEN in advisory mode
//     (allow + audit a degraded event) and fail CLOSED in enforcing and
//     encrypting modes (block, tagged DegradedTag).
//
// Verdicts the service answers are translated faithfully; an
// application-level rejection (4xx) is returned as an error. It is safe
// for concurrent use.
type FailoverEngine struct {
	cfg     FailoverConfig
	breaker *resilience.Breaker

	mu       sync.Mutex
	queue    []replayItem
	draining bool
	degraded bool

	degradedCount atomic.Int64
	replayed      atomic.Int64
	dropped       atomic.Int64
	recoveries    atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewFailoverEngine returns a started FailoverEngine.
func NewFailoverEngine(cfg FailoverConfig) (*FailoverEngine, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("tagserver: failover Client is required")
	}
	switch cfg.Mode {
	case policy.ModeAdvisory, policy.ModeEnforcing, policy.ModeEncrypting:
	default:
		return nil, fmt.Errorf("tagserver: invalid failover mode %d", int(cfg.Mode))
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultClientTimeout
	}
	breaker := cfg.Breaker
	if breaker == nil {
		breaker = resilience.NewBreaker(resilience.BreakerConfig{})
	}
	f := &FailoverEngine{
		cfg:     cfg,
		breaker: breaker,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		go f.prober()
	} else {
		close(f.done)
	}
	return f, nil
}

// Close stops the background prober (if any). Buffered observations stay
// queued; a later Probe from another holder of the breaker cannot drain
// them, so daemons should Close only at shutdown.
func (f *FailoverEngine) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Mode reports the enforcement mode.
func (f *FailoverEngine) Mode() policy.Mode { return f.cfg.Mode }

// Breaker returns the guarding circuit breaker.
func (f *FailoverEngine) Breaker() *resilience.Breaker { return f.breaker }

// RegisterMetrics exports the failover layer's health on an obs
// registry, from one Stats snapshot per scrape: the circuit-breaker state
// (0 closed, 1 open, 2 half-open), the replay-queue depth, and the
// degraded/replayed/dropped tallies.
func (f *FailoverEngine) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(e *obs.Scrape) {
		st := f.Stats()
		e.Gauge("bf_breaker_state",
			"Circuit-breaker state guarding the remote tag service (0 closed, 1 open, 2 half-open).",
			float64(st.BreakerState))
		e.Gauge("bf_failover_queue_len", "Observations buffered for replay while degraded.", float64(st.QueueLen))
		e.Counter("bf_failover_degraded_total", "Fallback decisions taken without the remote service.", uint64(st.Degraded))
		e.Counter("bf_failover_replayed_total", "Buffered observations delivered after recovery.", uint64(st.Replayed))
		e.Counter("bf_failover_dropped_total", "Observations lost to a full replay queue.", uint64(st.Dropped))
	})
}

// Stats returns a snapshot of the failover counters.
func (f *FailoverEngine) Stats() FailoverStats {
	f.mu.Lock()
	qlen := len(f.queue)
	f.mu.Unlock()
	return FailoverStats{
		BreakerState: f.breaker.State(),
		QueueLen:     qlen,
		Degraded:     f.degradedCount.Load(),
		Replayed:     f.replayed.Load(),
		Dropped:      f.dropped.Load(),
		Recoveries:   f.recoveries.Load(),
	}
}

// ObserveEdit records a paragraph edit, degrading to allow-and-buffer
// when the service is unreachable.
func (f *FailoverEngine) ObserveEdit(seg segment.ID, service, text string) (policy.Verdict, error) {
	return f.observe(seg, service, text, "")
}

// ObserveDocumentEdit records a whole-page observation, degrading to
// allow-and-buffer when the service is unreachable.
func (f *FailoverEngine) ObserveDocumentEdit(doc segment.ID, service, text string) (policy.Verdict, error) {
	return f.observe(doc, service, text, "document")
}

func (f *FailoverEngine) observe(seg segment.ID, service, text, granularity string) (policy.Verdict, error) {
	hashes, err := f.cfg.Client.hashes(text)
	if err != nil {
		return policy.Verdict{}, err
	}

	done, allowErr := f.breaker.Allow()
	if allowErr != nil {
		return f.degradeObserve(seg, service, hashes, granularity, allowErr), nil
	}
	ctx, cancel := f.callCtx()
	v, err := f.cfg.Client.ObserveHashes(ctx, service, seg, hashes, granularity)
	cancel()
	if err != nil {
		if IsUnavailable(err) {
			done(false)
			return f.degradeObserve(seg, service, hashes, granularity, err), nil
		}
		done(true) // the service answered; the request was wrong
		return policy.Verdict{}, err
	}
	done(true)
	f.onHealthy()
	return toPolicyVerdict(v, seg, service)
}

// CheckText evaluates ad-hoc text against a destination service,
// degrading to the mode's fail-open/fail-closed default.
func (f *FailoverEngine) CheckText(text, destService string) (policy.Verdict, error) {
	done, allowErr := f.breaker.Allow()
	if allowErr != nil {
		return f.degradeCheck("check", "", destService, allowErr), nil
	}
	ctx, cancel := f.callCtx()
	v, err := f.cfg.Client.CheckCtx(ctx, text, destService)
	cancel()
	if err != nil {
		if IsUnavailable(err) {
			done(false)
			return f.degradeCheck("check", "", destService, err), nil
		}
		done(true)
		return policy.Verdict{}, err
	}
	done(true)
	f.onHealthy()
	return toPolicyVerdict(v, "", destService)
}

// CheckUpload evaluates releasing a tracked segment to a destination,
// degrading to the mode's fail-open/fail-closed default.
func (f *FailoverEngine) CheckUpload(seg segment.ID, destService string) (policy.Verdict, error) {
	done, allowErr := f.breaker.Allow()
	if allowErr != nil {
		return f.degradeCheck("upload", seg, destService, allowErr), nil
	}
	ctx, cancel := f.callCtx()
	v, err := f.cfg.Client.CheckUploadCtx(ctx, seg, destService)
	cancel()
	if err != nil {
		if IsUnavailable(err) {
			done(false)
			return f.degradeCheck("upload", seg, destService, err), nil
		}
		done(true)
		return policy.Verdict{}, err
	}
	done(true)
	f.onHealthy()
	return toPolicyVerdict(v, seg, destService)
}

// Probe performs one health trial against the service. While the breaker
// is open (cooldown running) it returns resilience.ErrCircuitOpen without
// touching the network; in half-open it spends a trial on /healthz, and a
// success closes the breaker and drains the replay queue.
func (f *FailoverEngine) Probe(ctx context.Context) error {
	done, err := f.breaker.Allow()
	if err != nil {
		return err
	}
	if err := f.cfg.Client.Health(ctx); err != nil {
		done(false)
		return err
	}
	done(true)
	f.onHealthy()
	return nil
}

// prober drives half-open trials in the background while degraded.
func (f *FailoverEngine) prober() {
	defer close(f.done)
	ticker := time.NewTicker(f.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			if !f.isDegraded() {
				continue
			}
			ctx, cancel := f.callCtx()
			_ = f.Probe(ctx) // outcome is reflected in breaker state
			cancel()
		}
	}
}

func (f *FailoverEngine) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), f.cfg.CallTimeout)
}

func (f *FailoverEngine) isDegraded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded
}

// degradeObserve buffers the observation and allows the local edit.
func (f *FailoverEngine) degradeObserve(seg segment.ID, service string, hashes []uint32, granularity string, cause error) policy.Verdict {
	queued := f.enqueue(replayItem{service: service, seg: seg, hashes: hashes, granularity: granularity})
	f.noteDegraded(DegradedEvent{
		Op: "observe", Seg: seg, Service: service, Mode: f.cfg.Mode, Err: cause, Queued: queued,
	})
	return policy.Verdict{
		Decision: policy.DecisionAllow,
		Seg:      seg,
		Service:  service,
		Degraded: true,
	}
}

// degradeCheck substitutes the mode's default for a release check:
// advisory allows (fail open), enforcing/encrypting block (fail closed).
func (f *FailoverEngine) degradeCheck(op string, seg segment.ID, destService string, cause error) policy.Verdict {
	f.noteDegraded(DegradedEvent{
		Op: op, Seg: seg, Service: destService, Mode: f.cfg.Mode, Err: cause,
	})
	v := policy.Verdict{Seg: seg, Service: destService, Degraded: true}
	if f.cfg.Mode == policy.ModeAdvisory {
		v.Decision = policy.DecisionAllow
		return v
	}
	v.Decision = policy.DecisionBlock
	v.Violating = []tdm.Tag{DegradedTag}
	return v
}

// enqueue buffers an observation for replay, reporting whether it was
// accepted (false when the queue is full).
func (f *FailoverEngine) enqueue(item replayItem) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) >= f.cfg.QueueLimit {
		f.dropped.Add(1)
		return false
	}
	f.queue = append(f.queue, item)
	return true
}

// noteDegraded marks the engine degraded and fans the event out to the
// audit log and the OnDegraded hook.
func (f *FailoverEngine) noteDegraded(e DegradedEvent) {
	f.degradedCount.Add(1)
	f.mu.Lock()
	f.degraded = true
	f.mu.Unlock()
	if f.cfg.Audit != nil {
		f.cfg.Audit.Append(audit.Entry{
			User:          f.cfg.Client.device,
			Action:        audit.ActionDegraded,
			Segment:       string(e.Seg),
			Service:       e.Service,
			Justification: fmt.Sprintf("%s: %v", e.Op, e.Err),
		})
	}
	if f.cfg.OnDegraded != nil {
		f.cfg.OnDegraded(e)
	}
}

// onHealthy runs after any successful remote call: if the engine was
// degraded it flips back to healthy and drains the replay queue.
func (f *FailoverEngine) onHealthy() {
	f.mu.Lock()
	wasDegraded := f.degraded
	f.degraded = false
	hasQueue := len(f.queue) > 0
	f.mu.Unlock()
	if wasDegraded {
		f.recoveries.Add(1)
		if f.cfg.Audit != nil {
			f.cfg.Audit.Append(audit.Entry{
				User:          f.cfg.Client.device,
				Action:        audit.ActionRecovered,
				Justification: "tag service reachable again",
			})
		}
	}
	if hasQueue {
		f.drain()
	}
}

// drain replays buffered observations in FIFO order. Each item is removed
// only after the server acknowledged it, and the single-flight guard
// ensures no item is ever sent twice — together: exactly-once delivery of
// every accepted observation. A mid-drain failure leaves the remainder
// queued for the next recovery.
func (f *FailoverEngine) drain() {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return
	}
	f.draining = true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.draining = false
		f.mu.Unlock()
	}()

	for {
		f.mu.Lock()
		if len(f.queue) == 0 {
			f.mu.Unlock()
			return
		}
		item := f.queue[0]
		f.mu.Unlock()

		done, err := f.breaker.Allow()
		if err != nil {
			return // breaker re-opened; keep the remainder queued
		}
		ctx, cancel := f.callCtx()
		_, err = f.cfg.Client.ObserveHashes(ctx, item.service, item.seg, item.hashes, item.granularity)
		cancel()
		if err != nil {
			if IsUnavailable(err) {
				done(false)
				f.mu.Lock()
				f.degraded = true
				f.mu.Unlock()
				return
			}
			// The service rejected this item outright (e.g. its service
			// was deregistered); drop it rather than wedging the queue.
			done(true)
		} else {
			done(true)
			f.replayed.Add(1)
		}
		f.mu.Lock()
		f.queue = f.queue[1:]
		f.mu.Unlock()
	}
}

func toPolicyVerdict(v Verdict, seg segment.ID, service string) (policy.Verdict, error) {
	decision, err := policy.ParseDecision(v.Decision)
	if err != nil {
		return policy.Verdict{}, err
	}
	out := policy.Verdict{
		Decision:  decision,
		Seg:       seg,
		Service:   service,
		Violating: v.Violating,
	}
	for _, src := range v.Sources {
		out.Sources = append(out.Sources, disclosure.Source{Seg: src.Seg, Disclosure: src.Disclosure})
	}
	return out, nil
}
