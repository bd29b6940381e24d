package clock

import (
	"context"
	"sync"
	"time"
)

// Fake is a Clock whose time moves only when Advance moves it. It lets a
// test run a node's cadences, back-offs and deadlines exactly: Advance
// fires what fell due, and WaitArmed waits until the goroutines it woke
// have armed their next timers, that is, finished the work in between.
type Fake struct {
	mu      sync.Mutex
	changed *sync.Cond // broadcast whenever the armed set changes
	now     time.Time
	armed   []*fakeTimer
	seq     uint64
}

// NewFake returns a Fake reading start.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.changed = sync.NewCond(&f.mu)
	return f
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns Now().Sub(t).
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// NewTimer arms a timer d from now.
func (f *Fake) NewTimer(d time.Duration) Timer {
	t := &fakeTimer{f: f, c: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// AfterFunc arms a timer that calls fn, on Advance's goroutine, d from now.
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	t := &fakeTimer{f: f, fn: fn}
	t.Reset(d)
	return t
}

// WithTimeout returns a child of ctx that ends with
// context.DeadlineExceeded once the fake time passes d from now. Its
// Deadline is ctx's: a fake instant means nothing to the network code
// that reads deadlines.
func (f *Fake) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c := &timeoutCtx{Context: ctx, done: make(chan struct{})}
	t := f.AfterFunc(d, func() { c.end(context.DeadlineExceeded) })
	stop := context.AfterFunc(ctx, func() { c.end(ctx.Err()) })
	return c, func() {
		t.Stop()
		stop()
		c.end(context.Canceled)
	}
}

// Advance moves the time d forward. Every timer due by then fires in
// deadline order, arming order breaking ties, with the time set to its
// deadline; one armed while Advance runs fires too if it falls due.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range f.armed {
			if !t.at.After(end) && (next == nil || t.at.Before(next.at) || t.at.Equal(next.at) && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			break
		}
		if next.at.After(f.now) {
			f.now = next.at
		}
		f.disarmLocked(next)
		if next.fn == nil {
			next.c <- f.now // buffered, and emptied before each Reset
			continue
		}
		f.mu.Unlock()
		next.fn()
		f.mu.Lock()
	}
	f.now = end
}

// WaitArmed blocks until exactly n timers are armed.
func (f *Fake) WaitArmed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.armed) != n {
		f.changed.Wait()
	}
}

func (f *Fake) disarmLocked(t *fakeTimer) bool {
	for i, a := range f.armed {
		if a == t {
			f.armed = append(f.armed[:i], f.armed[i+1:]...)
			f.changed.Broadcast()
			return true
		}
	}
	return false
}

type fakeTimer struct {
	f   *Fake
	c   chan time.Time // nil for an after-func
	fn  func()
	at  time.Time
	seq uint64
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	return t.f.disarmLocked(t)
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	was := f.disarmLocked(t)
	select {
	case <-t.c: // a tick nobody took; as time.Timer since Go 1.23
	default:
	}
	f.seq++
	t.at, t.seq = f.now.Add(d), f.seq
	f.armed = append(f.armed, t)
	f.changed.Broadcast()
	return was
}

// timeoutCtx is a context that a Fake's timer ends.
type timeoutCtx struct {
	context.Context
	done chan struct{}
	mu   sync.Mutex
	err  error
}

func (c *timeoutCtx) Done() <-chan struct{} { return c.done }

func (c *timeoutCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *timeoutCtx) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
}
