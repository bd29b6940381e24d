// Package clock is the node's one time source. Everything a node times —
// timestamps, latencies, cadences, back-offs and request deadlines — reads
// a Clock, so a test can hand the node a Fake and move its time by hand.
// A nil Clock means the real one (see Or).
package clock

import (
	"context"
	"time"
)

// Clock is a source of time and of timers on that time.
type Clock interface {
	Now() time.Time
	// Since is Now().Sub(t); the real clock reads only the monotonic
	// counter, about half the cost of a second Now.
	Since(t time.Time) time.Duration
	// NewTimer sends the time on its channel once d has elapsed.
	NewTimer(d time.Duration) Timer
	// AfterFunc calls f once d has elapsed; the Timer's channel is nil.
	AfterFunc(d time.Duration, f func()) Timer
	// WithTimeout is context.WithTimeout on this clock: the context ends
	// with context.DeadlineExceeded once d has elapsed.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Timer is a pending event on a Clock, as time.Timer is on the real one.
type Timer interface {
	C() <-chan time.Time
	// Stop disarms the timer; it reports whether the timer was armed.
	Stop() bool
	// Reset re-arms the timer to fire d from now; it reports whether the
	// timer was armed. Reset it only once it fired or was stopped, with
	// its channel drained.
	Reset(d time.Duration) bool
}

// Every calls fn each time t fires, until stop closes or fn returns false.
// It keeps a fixed rate: once fn returns, t is re-armed on c to fire d
// after it last fired, or at once if fn took d or longer, as a
// time.Ticker's buffered tick would. A call takes no fake time, so a Fake
// test that waits for t to be armed again knows the call is over. t is
// armed by the caller, before the goroutine that runs Every starts, so the
// first call is d from then.
func Every(c Clock, t Timer, d time.Duration, stop <-chan struct{}, fn func() bool) {
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case fired := <-t.C():
			if !fn() {
				return
			}
			t.Reset(max(0, d-c.Since(fired)))
		}
	}
}

// Or returns c, or the real clock when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return wall{}
	}
	return c
}

// wall is the real clock.
type wall struct{}

func (wall) Now() time.Time                  { return time.Now() }
func (wall) Since(t time.Time) time.Duration { return time.Since(t) }
func (wall) NewTimer(d time.Duration) Timer  { return realTimer{time.NewTimer(d)} }
func (wall) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}
func (wall) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// realTimer is one pointer wide, so it fits an interface without
// allocating.
type realTimer struct{ *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.Timer.C }
