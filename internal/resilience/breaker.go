package resilience

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

// ErrCircuitOpen is returned (possibly wrapped) when the breaker rejects a
// call without dispatching it.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// State is a circuit breaker state.
type State int

const (
	// StateClosed passes every call through, counting consecutive
	// failures.
	StateClosed State = iota

	// StateOpen rejects every call until the cooldown elapses.
	StateOpen

	// StateHalfOpen admits a bounded number of trial calls; success
	// closes the breaker, failure reopens it.
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig configures a Breaker. The zero value gets sane defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker open (default 5).
	FailureThreshold int

	// Cooldown is how long an open breaker rejects calls before
	// admitting half-open trials (default 10s).
	Cooldown time.Duration

	// HalfOpenMax bounds concurrent trial calls in half-open (default 1).
	HalfOpenMax int

	// SuccessThreshold is the number of successful trials that closes a
	// half-open breaker (default 1).
	SuccessThreshold int

	// Clock times the cooldown; nil means the real one.
	Clock clock.Clock

	// OnStateChange, if set, observes every transition (metrics hook).
	// It is called without the breaker's lock held.
	OnStateChange func(from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.HalfOpenMax <= 0 {
		c.HalfOpenMax = 1
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 1
	}
	c.Clock = clock.Or(c.Clock)
	return c
}

// BreakerStats snapshots a breaker's counters.
type BreakerStats struct {
	State               State
	ConsecutiveFailures int
	Opens               int64 // closed/half-open -> open transitions
	Rejections          int64 // calls rejected with ErrCircuitOpen
	Trials              int64 // half-open trial calls admitted
}

// Breaker is a three-state circuit breaker. Guard a call with Allow; the
// returned done function must be invoked exactly once with the call's
// outcome. It is safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu                sync.Mutex
	state             State
	failures          int
	openedAt          time.Time
	halfOpenInFlight  int
	halfOpenSuccesses int

	opens      int64
	rejections int64
	trials     int64
}

// NewBreaker returns a closed Breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the current state, transitioning open -> half-open when
// the cooldown has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	s, notify := b.refreshLocked()
	b.mu.Unlock()
	b.notify(notify)
	return s
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:               b.state,
		ConsecutiveFailures: b.failures,
		Opens:               b.opens,
		Rejections:          b.rejections,
		Trials:              b.trials,
	}
}

// Allow asks to dispatch one call. On success it returns a done function
// that must be called exactly once with the call's outcome; otherwise it
// returns ErrCircuitOpen.
func (b *Breaker) Allow() (done func(success bool), err error) {
	b.mu.Lock()
	_, notify := b.refreshLocked()
	switch b.state {
	case StateOpen:
		b.rejections++
		b.mu.Unlock()
		b.notify(notify)
		return nil, ErrCircuitOpen
	case StateHalfOpen:
		if b.halfOpenInFlight >= b.cfg.HalfOpenMax {
			b.rejections++
			b.mu.Unlock()
			b.notify(notify)
			return nil, ErrCircuitOpen
		}
		b.halfOpenInFlight++
		b.trials++
	}
	b.mu.Unlock()
	b.notify(notify)

	var once sync.Once
	return func(success bool) {
		once.Do(func() { b.record(success) })
	}, nil
}

// record applies one call outcome.
func (b *Breaker) record(success bool) {
	b.mu.Lock()
	var notify [][2]State
	switch b.state {
	case StateHalfOpen:
		b.halfOpenInFlight--
		if success {
			b.halfOpenSuccesses++
			if b.halfOpenSuccesses >= b.cfg.SuccessThreshold {
				notify = append(notify, b.setStateLocked(StateClosed))
				b.failures = 0
			}
		} else {
			notify = append(notify, b.setStateLocked(StateOpen))
		}
	case StateClosed:
		if success {
			b.failures = 0
		} else {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				notify = append(notify, b.setStateLocked(StateOpen))
			}
		}
	case StateOpen:
		// A call admitted before the trip finished late; only successes
		// matter here, and they cannot close an open breaker early.
	}
	b.mu.Unlock()
	b.notify(notify)
}

// refreshLocked transitions open -> half-open once the cooldown elapses.
// It returns the state and any transition to notify after unlocking.
func (b *Breaker) refreshLocked() (State, [][2]State) {
	if b.state == StateOpen && b.cfg.Clock.Since(b.openedAt) >= b.cfg.Cooldown {
		return StateHalfOpen, [][2]State{b.setStateLocked(StateHalfOpen)}
	}
	return b.state, nil
}

// setStateLocked performs a transition and returns it for deferred
// notification (OnStateChange must run without the lock).
func (b *Breaker) setStateLocked(to State) [2]State {
	from := b.state
	b.state = to
	switch to {
	case StateOpen:
		b.openedAt = b.cfg.Clock.Now()
		b.opens++
		b.halfOpenSuccesses = 0
		b.halfOpenInFlight = 0
	case StateHalfOpen:
		b.halfOpenSuccesses = 0
		b.halfOpenInFlight = 0
	case StateClosed:
		b.failures = 0
	}
	return [2]State{from, to}
}

func (b *Breaker) notify(transitions [][2]State) {
	if b.cfg.OnStateChange == nil {
		return
	}
	for _, tr := range transitions {
		if tr[0] != tr[1] {
			b.cfg.OnStateChange(tr[0], tr[1])
		}
	}
}

// BreakerTransport guards an http.RoundTripper with a Breaker: transport
// errors and 5xx responses count as failures.
type BreakerTransport struct {
	next    http.RoundTripper
	breaker *Breaker
}

// NewBreakerTransport wraps next with breaker. A nil next uses
// http.DefaultTransport.
func NewBreakerTransport(next http.RoundTripper, breaker *Breaker) *BreakerTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &BreakerTransport{next: next, breaker: breaker}
}

// WithBreaker is the Middleware form of NewBreakerTransport.
func WithBreaker(breaker *Breaker) Middleware {
	return func(next http.RoundTripper) http.RoundTripper {
		return NewBreakerTransport(next, breaker)
	}
}

// Breaker returns the underlying breaker (for stats and state queries).
func (t *BreakerTransport) Breaker() *Breaker { return t.breaker }

// RoundTrip implements http.RoundTripper.
func (t *BreakerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	done, err := t.breaker.Allow()
	if err != nil {
		return nil, fmt.Errorf("resilience: %s %s: %w", req.Method, req.URL.Path, err)
	}
	resp, err := t.next.RoundTrip(req)
	done(err == nil && resp.StatusCode < http.StatusInternalServerError)
	return resp, err
}
