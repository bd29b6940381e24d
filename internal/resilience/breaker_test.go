package resilience

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

func newFakeClock() *clock.Fake { return clock.NewFake(time.Unix(1700000000, 0)) }

func testBreaker(clk *clock.Fake, onChange func(from, to State)) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         10 * time.Second,
		Clock:            clk,
		OnStateChange:    onChange,
	})
}

func mustAllow(t *testing.T, b *Breaker) func(bool) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v (state=%v)", err, b.State())
	}
	return done
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	var transitions []string
	b := testBreaker(clk, func(from, to State) {
		transitions = append(transitions, fmt.Sprintf("%v->%v", from, to))
	})

	// Interleaved success resets the failure count.
	mustAllow(t, b)(false)
	mustAllow(t, b)(false)
	mustAllow(t, b)(true)
	if b.State() != StateClosed {
		t.Fatalf("state=%v after reset, want closed", b.State())
	}

	for i := 0; i < 3; i++ {
		mustAllow(t, b)(false)
	}
	if b.State() != StateOpen {
		t.Fatalf("state=%v after 3 failures, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}
	if got := b.Stats(); got.Opens != 1 || got.Rejections != 1 {
		t.Errorf("stats=%+v", got)
	}
	if len(transitions) != 1 || transitions[0] != "closed->open" {
		t.Errorf("transitions=%v", transitions)
	}
}

func TestBreakerHalfOpenTrialRecovers(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		mustAllow(t, b)(false)
	}

	// Cooldown not elapsed: still rejecting.
	clk.Advance(9 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker admitted a call before cooldown")
	}

	// Cooldown elapsed: one trial admitted, concurrent trials rejected.
	clk.Advance(2 * time.Second)
	done := mustAllow(t, b)
	if b.State() != StateHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second concurrent trial admitted in half-open")
	}
	done(true)
	if b.State() != StateClosed {
		t.Fatalf("state=%v after successful trial, want closed", b.State())
	}
	if got := b.Stats(); got.Trials != 1 {
		t.Errorf("stats=%+v", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		mustAllow(t, b)(false)
	}
	clk.Advance(11 * time.Second)
	mustAllow(t, b)(false) // failed trial
	if b.State() != StateOpen {
		t.Fatalf("state=%v after failed trial, want open", b.State())
	}
	// A fresh cooldown applies.
	if _, err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("reopened breaker admitted a call immediately")
	}
	clk.Advance(11 * time.Second)
	mustAllow(t, b)(true)
	if b.State() != StateClosed {
		t.Fatalf("state=%v, want closed", b.State())
	}
}

func TestBreakerSuccessThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Second,
		SuccessThreshold: 2,
		HalfOpenMax:      2,
		Clock:            clk,
	})
	mustAllow(t, b)(false)
	clk.Advance(2 * time.Second)
	mustAllow(t, b)(true)
	if b.State() != StateHalfOpen {
		t.Fatalf("state=%v after 1/2 successes, want half-open", b.State())
	}
	mustAllow(t, b)(true)
	if b.State() != StateClosed {
		t.Fatalf("state=%v after 2/2 successes, want closed", b.State())
	}
}

func TestBreakerDoneIdempotent(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	done := mustAllow(t, b)
	done(false)
	done(false) // ignored: outcome already recorded
	if got := b.Stats().ConsecutiveFailures; got != 1 {
		t.Errorf("failures=%d, want 1", got)
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 5, Cooldown: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				done, err := b.Allow()
				if err != nil {
					continue
				}
				done(i%3 != 0)
			}
		}(g)
	}
	wg.Wait()
	// No deadlock, no race; state is one of the three valid states.
	if s := b.State(); s != StateClosed && s != StateOpen && s != StateHalfOpen {
		t.Errorf("invalid state %v", s)
	}
}

func TestBreakerTransport(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, Clock: clk})
	script := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		status(500), fail(errors.New("boom")), ok200(),
	}}
	rt := NewBreakerTransport(script, b)

	if resp, err := get(t, rt); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close() // 500 counts as failure
	}
	if _, err := get(t, rt); err == nil {
		t.Fatal("expected transport error")
	}
	if b.State() != StateOpen {
		t.Fatalf("state=%v, want open", b.State())
	}
	if _, err := get(t, rt); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err=%v, want ErrCircuitOpen", err)
	}
	if script.Calls() != 2 {
		t.Errorf("open breaker let a call through: calls=%d", script.Calls())
	}
	clk.Advance(2 * time.Minute)
	resp, err := get(t, rt)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if b.State() != StateClosed {
		t.Errorf("state=%v after successful trial, want closed", b.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed: "closed", StateOpen: "open", StateHalfOpen: "half-open", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String()=%q, want %q", int(s), s.String(), want)
		}
	}
}
