// Package resilience hardens the remote tag-service path (§6's enterprise
// deployment) against partial failure. Every disclosure verdict in a
// shared-service deployment rides on a network round-trip, so the package
// provides composable http.RoundTripper middleware:
//
//   - RetryTransport: per-attempt deadlines and capped exponential backoff
//     with full jitter. Only idempotent requests (GET/HEAD/OPTIONS/TRACE,
//     or mutations explicitly marked replay-safe with an Idempotency-Key
//     header) and requests that provably never reached the server are
//     retried — a delivered non-idempotent POST is never replayed.
//   - Breaker / BreakerTransport: a three-state circuit breaker
//     (closed → open → half-open) that sheds load while the service is
//     down and probes it with bounded trial requests on recovery.
//
// Middleware composes with Chain; metrics hooks (OnRetry, OnStateChange)
// expose every decision to the caller's instrumentation.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/lsds/browserflow/internal/obs"
)

// Middleware wraps an http.RoundTripper with additional behaviour.
type Middleware func(http.RoundTripper) http.RoundTripper

// Chain composes middleware around base; the first middleware is the
// outermost layer. Chain(base, A, B) dispatches A -> B -> base.
func Chain(base http.RoundTripper, mws ...Middleware) http.RoundTripper {
	rt := base
	for i := len(mws) - 1; i >= 0; i-- {
		rt = mws[i](rt)
	}
	return rt
}

// notSentMarker is implemented by errors (e.g. from internal/faultinject)
// guaranteeing the request body never reached the server, which makes a
// retry safe even for non-idempotent methods.
type notSentMarker interface{ RequestNotSent() bool }

// NotDelivered reports whether err proves the request was never delivered
// upstream: dial-level failures, connection-refused, or transports marking
// the error with a RequestNotSent() method. Anything else must be assumed
// delivered.
func NotDelivered(err error) bool {
	var m notSentMarker
	if errors.As(err, &m) {
		return m.RequestNotSent()
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// IdempotencyKeyHeader marks a mutating request as safe to replay: the
// sender guarantees that applying the request twice converges to the
// same state (BrowserFlow's tag-service mutations have this property
// because every one becomes an idempotent WAL record — see
// internal/store's replay semantics). RetryTransport treats requests
// carrying the header like idempotent methods.
const IdempotencyKeyHeader = "Idempotency-Key"

// Idempotent reports whether the request may be retried unconditionally:
// either its method is idempotent by definition, or the sender opted in
// by attaching an Idempotency-Key header.
func Idempotent(req *http.Request) bool {
	switch req.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return req.Header.Get(IdempotencyKeyHeader) != ""
}

// RetryPolicy configures a RetryTransport.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3).
	MaxAttempts int

	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration

	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration

	// PerAttemptTimeout bounds each individual attempt; 0 disables. The
	// caller's request context still bounds the whole call.
	PerAttemptTimeout time.Duration

	// RetryStatuses are response codes treated as transient server
	// failures (default 429, 502, 503, 504). They are retried for
	// idempotent requests only — the body was delivered. 429 is
	// retryable-with-hint: the admission layer shed the request and its
	// Retry-After header says when capacity should exist again.
	RetryStatuses []int

	// MaxRetryAfter caps how far a server's Retry-After hint can stretch
	// a single inter-attempt delay (default 30s). The hint only ever
	// lengthens the computed backoff, never shortens it — a server asking
	// for patience gets at least the jittered exponential wait.
	MaxRetryAfter time.Duration

	// Rand supplies the jitter; nil uses a locked global source. Seeding
	// it makes backoff sequences deterministic for tests.
	Rand *rand.Rand

	// Sleep replaces the inter-attempt wait, letting tests skip real
	// delays. Nil uses a context-aware timer.
	Sleep func(time.Duration)

	// OnRetry, if set, observes every scheduled retry (metrics hook).
	// attempt is the attempt that just failed (1-based).
	OnRetry func(req *http.Request, attempt int, delay time.Duration, reason string)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.RetryStatuses == nil {
		p.RetryStatuses = []int{http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 30 * time.Second
	}
	return p
}

// ParseRetryAfter parses an HTTP Retry-After header value: either a
// non-negative decimal number of seconds or an HTTP-date. now anchors
// date-form values (pass time.Now() outside tests). ok is false for empty
// or malformed values; a date already in the past parses as (0, true).
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	when, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	d := when.Sub(now)
	if d < 0 {
		d = 0
	}
	return d, true
}

// RetryTransport retries transient failures with capped exponential
// backoff and full jitter. It is safe for concurrent use.
type RetryTransport struct {
	next        http.RoundTripper
	policy      RetryPolicy
	retryStatus map[int]bool

	randMu sync.Mutex // guards policy.Rand

	attempts atomic.Int64
	retries  atomic.Int64
	giveUps  atomic.Int64
}

// NewRetryTransport wraps next with policy. A nil next uses
// http.DefaultTransport.
func NewRetryTransport(next http.RoundTripper, policy RetryPolicy) *RetryTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	policy = policy.withDefaults()
	t := &RetryTransport{next: next, policy: policy, retryStatus: make(map[int]bool)}
	for _, code := range policy.RetryStatuses {
		t.retryStatus[code] = true
	}
	return t
}

// WithRetry is the Middleware form of NewRetryTransport.
func WithRetry(policy RetryPolicy) Middleware {
	return func(next http.RoundTripper) http.RoundTripper {
		return NewRetryTransport(next, policy)
	}
}

// RetryStats snapshots the transport's counters.
type RetryStats struct {
	// Attempts counts every dispatched attempt (first tries included).
	Attempts int64

	// Retries counts re-dispatched attempts.
	Retries int64

	// GiveUps counts logical requests that exhausted every attempt.
	GiveUps int64
}

// Stats returns a snapshot of the counters.
func (t *RetryTransport) Stats() RetryStats {
	return RetryStats{
		Attempts: t.attempts.Load(),
		Retries:  t.retries.Load(),
		GiveUps:  t.giveUps.Load(),
	}
}

// RoundTrip implements http.RoundTripper.
func (t *RetryTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	var lastErr error
	for attempt := 0; attempt < t.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !rewindBody(req) {
				// Body cannot be replayed; surface the previous failure.
				t.giveUps.Add(1)
				return nil, lastErr
			}
		}
		t.attempts.Add(1)

		attemptReq := req
		cancel := context.CancelFunc(nil)
		if t.policy.PerAttemptTimeout > 0 {
			var actx context.Context
			actx, cancel = context.WithTimeout(ctx, t.policy.PerAttemptTimeout)
			attemptReq = req.Clone(actx)
		}

		resp, err := t.next.RoundTrip(attemptReq)

		var reason string
		var hint time.Duration
		switch {
		case err == nil && !t.retryStatus[resp.StatusCode]:
			// Success (or a non-transient failure status the caller
			// handles).
			return holdCancel(resp, cancel), nil
		case err == nil:
			// Transient server status. The body was delivered, so only
			// idempotent requests may retry; a delivered POST is final.
			if !Idempotent(req) || attempt == t.policy.MaxAttempts-1 {
				return holdCancel(resp, cancel), nil
			}
			reason = fmt.Sprintf("status %d", resp.StatusCode)
			// Read the Retry-After hint before the body (and with it the
			// header view) is released.
			if h, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				hint = h
				reason += fmt.Sprintf(" (retry-after %s)", h)
			}
			drainClose(resp)
			release(cancel)
			lastErr = fmt.Errorf("resilience: upstream status %d", resp.StatusCode)
		default:
			release(cancel)
			lastErr = err
			if ctx.Err() != nil {
				// The caller's context is gone; no point retrying.
				t.giveUps.Add(1)
				return nil, err
			}
			if !Idempotent(req) && !NotDelivered(err) {
				// The body may have reached the server: never replay it.
				t.giveUps.Add(1)
				return nil, err
			}
			reason = "error: " + err.Error()
		}

		if attempt == t.policy.MaxAttempts-1 {
			break
		}
		delay := t.backoff(attempt)
		// Honor the server's Retry-After: it never shortens the jittered
		// backoff, only stretches it (bounded by MaxRetryAfter).
		if hint > t.policy.MaxRetryAfter {
			hint = t.policy.MaxRetryAfter
		}
		if hint > delay {
			delay = hint
		}
		t.retries.Add(1)
		if t.policy.OnRetry != nil {
			t.policy.OnRetry(req, attempt+1, delay, reason)
		}
		// When the request rides a trace, the scheduled retry becomes a
		// span on it, so an end-to-end trace shows every extra attempt a
		// flaky transport cost the caller. No-op on untraced requests.
		obs.RecordSpan(ctx, "resilience.retry", time.Now(), delay, lastErr, map[string]string{
			"attempt": fmt.Sprintf("%d", attempt+1),
			"reason":  reason,
		})
		if !t.sleep(ctx, delay) {
			t.giveUps.Add(1)
			return nil, ctx.Err()
		}
	}
	t.giveUps.Add(1)
	return nil, lastErr
}

// backoff returns the full-jitter delay for the given 0-based attempt:
// uniform in [0, min(MaxDelay, BaseDelay·2^attempt)].
func (t *RetryTransport) backoff(attempt int) time.Duration {
	ceil := t.policy.BaseDelay << uint(attempt)
	if ceil <= 0 || ceil > t.policy.MaxDelay {
		ceil = t.policy.MaxDelay
	}
	t.randMu.Lock()
	defer t.randMu.Unlock()
	if t.policy.Rand != nil {
		return time.Duration(t.policy.Rand.Int63n(int64(ceil) + 1))
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// sleep waits for d, aborting early when ctx is cancelled. It reports
// whether the caller should proceed with the next attempt.
func (t *RetryTransport) sleep(ctx context.Context, d time.Duration) bool {
	if t.policy.Sleep != nil {
		t.policy.Sleep(d)
		return ctx.Err() == nil
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// rewindBody restores req.Body for a retry. It reports false when the body
// cannot be replayed.
func rewindBody(req *http.Request) bool {
	if req.Body == nil || req.Body == http.NoBody {
		return true
	}
	if req.GetBody == nil {
		return false
	}
	body, err := req.GetBody()
	if err != nil {
		return false
	}
	req.Body = body
	return true
}

// drainClose discards a bounded prefix of the body and closes it so the
// underlying connection can be reused.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()
}

// holdCancel defers a per-attempt context cancel until the response body
// is closed, so the caller can still read it.
func holdCancel(resp *http.Response, cancel context.CancelFunc) *http.Response {
	if cancel == nil {
		return resp
	}
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp
}

func release(cancel context.CancelFunc) {
	if cancel != nil {
		cancel()
	}
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
	closed sync.Once
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.closed.Do(c.cancel)
	return err
}
