package clock

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// TestFakeAdvance: Advance fires what fell due and nothing early, earliest
// first and arming order breaking ties, each at its own deadline.
func TestFakeAdvance(t *testing.T) {
	f := NewFake(epoch)
	var got []string
	at := func(name string) func() { return func() { got = append(got, name+"@"+f.Since(epoch).String()) } }
	f.AfterFunc(3*time.Second, at("c"))
	f.AfterFunc(time.Second, at("a"))
	f.AfterFunc(time.Second, at("b"))
	f.AfterFunc(time.Second, at("stopped")).Stop()
	tm := f.NewTimer(2 * time.Second)
	f.Advance(2*time.Second - 1)
	if len(tm.C()) != 0 || fmt.Sprint(got) != "[a@1s b@1s]" {
		t.Fatalf("at 2s-1ns: timer fired %v, after-funcs %v", len(tm.C()) != 0, got)
	}
	f.Advance(time.Hour)
	if now := <-tm.C(); !now.Equal(epoch.Add(2*time.Second)) || fmt.Sprint(got) != "[a@1s b@1s c@3s]" {
		t.Errorf("timer sent %v, after-funcs %v", now, got)
	}
	if tm.Stop() || tm.Reset(time.Second) || !tm.Stop() {
		t.Error("Stop or Reset misreports whether the timer was armed")
	}
}

// TestFakeWithTimeout: the context ends with DeadlineExceeded once the fake
// time passes its timeout, with Canceled when cancelled, and with its
// parent; it has no wall-clock deadline.
func TestFakeWithTimeout(t *testing.T) {
	f := NewFake(epoch)
	parent, cancelParent := context.WithCancel(context.Background())
	timedOut, cancel1 := f.WithTimeout(context.Background(), time.Second)
	cancelled, cancel2 := f.WithTimeout(context.Background(), time.Second)
	orphaned, cancel3 := f.WithTimeout(parent, time.Second)
	defer cancel1()
	defer cancel3()
	if _, ok := timedOut.Deadline(); ok || timedOut.Err() != nil {
		t.Fatal("a fresh fake timeout has a deadline or has ended")
	}
	cancel2()
	cancelParent()
	<-orphaned.Done()
	f.Advance(time.Second)
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{timedOut, context.DeadlineExceeded}, {cancelled, context.Canceled}, {orphaned, context.Canceled}} {
		if <-c.ctx.Done(); !errors.Is(c.ctx.Err(), c.want) {
			t.Errorf("Err = %v, want %v", c.ctx.Err(), c.want)
		}
	}
}

// TestEveryKeepsRate: a call's own time comes off the pause before the
// next, and a call that took the whole period is followed at once.
func TestEveryKeepsRate(t *testing.T) {
	f := NewFake(epoch)
	took := []time.Duration{3 * time.Second, 15 * time.Second, 0}
	var at []string
	stop := make(chan struct{})
	defer close(stop)
	go Every(f, f.NewTimer(10*time.Second), 10*time.Second, stop, func() bool {
		at = append(at, f.Since(epoch).String())
		f.Advance(took[len(at)-1])
		return true
	})
	for _, step := range []struct {
		d    time.Duration
		want string
	}{{10 * time.Second, "[10s]"}, {7*time.Second - 1, "[10s]"}, {1, "[10s 20s]"}, {0, "[10s 20s 35s]"}} {
		f.Advance(step.d)
		if f.WaitArmed(1); fmt.Sprint(at) != step.want {
			t.Fatalf("after +%v: calls at %v, want %v", step.d, at, step.want)
		}
	}
}
