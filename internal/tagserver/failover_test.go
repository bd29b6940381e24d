package tagserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/segment"
)

func newFakeClock() *clock.Fake { return clock.NewFake(time.Unix(1700000000, 0)) }

// observeRecorder records every /v1/observe request the server actually
// receives — segment order and per-segment delivery counts — so tests can
// assert exactly-once FIFO replay against the server side.
type observeRecorder struct {
	next http.Handler

	mu    sync.Mutex
	order []segment.ID
	count map[segment.ID]int
}

func newObserveRecorder(next http.Handler) *observeRecorder {
	return &observeRecorder{next: next, count: make(map[segment.ID]int)}
}

func (rec *observeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/observe" {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req ObserveRequest
			if json.Unmarshal(body, &req) == nil {
				rec.mu.Lock()
				rec.order = append(rec.order, req.Seg)
				rec.count[req.Seg]++
				rec.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	rec.next.ServeHTTP(w, r)
}

func (rec *observeRecorder) Order() []segment.ID {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]segment.ID(nil), rec.order...)
}

func (rec *observeRecorder) Count(seg segment.ID) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.count[seg]
}

// chaosService is a real tag service behind an observe recorder, reached
// through a deterministic fault injector.
type chaosService struct {
	srv      *httptest.Server
	recorder *observeRecorder
	engine   *policy.Engine
	injector *faultinject.Injector
	client   *Client
}

func newChaosService(t *testing.T, mode policy.Mode) *chaosService {
	t.Helper()
	backend, engine := newService(t)
	backend.Close() // replaced by the recorder-wrapped server below

	server, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	recorder := newObserveRecorder(server)
	srv := httptest.NewServer(recorder)
	t.Cleanup(srv.Close)

	inj := faultinject.New(srv.Client().Transport, 1)
	inj.SetSleep(func(time.Duration) {}) // latency faults must not slow tests
	client, err := NewClient(srv.URL, "chaos-laptop", fpConfig(), WithTransport(inj))
	if err != nil {
		t.Fatal(err)
	}
	return &chaosService{srv: srv, recorder: recorder, engine: engine, injector: inj, client: client}
}

func newFailover(t *testing.T, cs *chaosService, mode policy.Mode, clk *clock.Fake, log *audit.Log) *FailoverEngine {
	t.Helper()
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         10 * time.Second,
		Clock:            clk,
	})
	f, err := NewFailoverEngine(FailoverConfig{
		Client:  cs.client,
		Mode:    mode,
		Breaker: breaker,
		Audit:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// The headline chaos scenario of the robustness PR: an enforcing-mode
// FailoverEngine rides through a full outage — blocking releases fail
// closed while the breaker is open, local edits buffer, and on recovery the
// replay queue delivers every buffered observation to the server exactly
// once, in order.
func TestFailoverEndToEndChaos(t *testing.T) {
	cs := newChaosService(t, policy.ModeEnforcing)
	clk := newFakeClock()
	log := audit.NewLog()
	f := newFailover(t, cs, policy.ModeEnforcing, clk, log)

	// Phase 1: healthy. Real verdicts flow end to end.
	v, err := f.ObserveEdit("wiki/schedule#p0", "wiki", orgSecret)
	if err != nil || v.Decision != policy.DecisionAllow || v.Degraded {
		t.Fatalf("healthy observe: v=%+v err=%v", v, err)
	}
	v, err = f.CheckText(orgSecret, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionBlock || v.Degraded {
		t.Fatalf("healthy check of tracked secret: %+v, want genuine block", v)
	}

	// Phase 2: outage. Every request dies at the connection level.
	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	for i := 0; i < 3; i++ {
		v, err = f.CheckText("benign note", "docs")
		if err != nil {
			t.Fatalf("degraded check %d returned error: %v", i, err)
		}
		if v.Decision != policy.DecisionBlock || !v.Degraded {
			t.Fatalf("degraded check %d: %+v, want fail-closed block", i, v)
		}
	}
	if got := f.Breaker().State(); got != resilience.StateOpen {
		t.Fatalf("breaker=%v after 3 consecutive failures, want open", got)
	}

	// While open, decisions fall back locally without touching the network.
	attemptsBefore := cs.injector.Attempts("/v1/check")
	v, err = f.CheckText("benign note", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionBlock || !v.Degraded {
		t.Fatalf("open-breaker check: %+v", v)
	}
	if len(v.Violating) != 1 || v.Violating[0] != DegradedTag {
		t.Errorf("open-breaker check violating=%v, want [%s]", v.Violating, DegradedTag)
	}
	if got := cs.injector.Attempts("/v1/check"); got != attemptsBefore {
		t.Errorf("open breaker still hit the network: attempts %d -> %d", attemptsBefore, got)
	}

	// Local edits stay allowed and buffer for replay.
	segs := []segment.ID{"wiki/a#p0", "wiki/b#p0", "wiki/c#p0"}
	for i, seg := range segs {
		text := fmt.Sprintf("offline paragraph %d drafted while the tag service was down", i)
		v, err = f.ObserveEdit(seg, "wiki", text)
		if err != nil {
			t.Fatalf("degraded observe: %v", err)
		}
		if v.Decision != policy.DecisionAllow || !v.Degraded {
			t.Fatalf("degraded observe: %+v, want degraded allow", v)
		}
	}
	if got := f.Stats().QueueLen; got != 3 {
		t.Fatalf("queue len=%d, want 3", got)
	}
	if got := cs.injector.Attempts("/v1/observe"); got != 1 {
		t.Errorf("open breaker sent observes upstream: attempts=%d, want 1 (healthy phase only)", got)
	}

	// Phase 3: recovery. Faults clear, cooldown elapses, a health probe
	// spends the half-open trial and the queue drains.
	cs.injector.ClearRules()
	clk.Advance(11 * time.Second)
	if err := f.Probe(context.Background()); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if got := f.Breaker().State(); got != resilience.StateClosed {
		t.Fatalf("breaker=%v after successful probe, want closed", got)
	}

	stats := f.Stats()
	if stats.QueueLen != 0 || stats.Replayed != 3 || stats.Dropped != 0 {
		t.Fatalf("post-drain stats=%+v", stats)
	}
	if stats.Recoveries == 0 {
		t.Error("recovery not counted")
	}

	// Server-side proof of exactly-once FIFO delivery.
	order := cs.recorder.Order()
	if len(order) != 1+len(segs) {
		t.Fatalf("server saw %d observes (%v), want %d", len(order), order, 1+len(segs))
	}
	for i, seg := range segs {
		if order[1+i] != seg {
			t.Errorf("replay order[%d]=%s, want %s (full order %v)", i, order[1+i], seg, order)
		}
		if n := cs.recorder.Count(seg); n != 1 {
			t.Errorf("segment %s delivered %d times, want exactly once", seg, n)
		}
	}
	remote, err := cs.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.Segments != 1+len(segs) {
		t.Errorf("server segments=%d after replay, want %d", remote.Segments, 1+len(segs))
	}

	// Post-recovery decisions are genuine again.
	v, err = f.CheckText("benign note", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow || v.Degraded {
		t.Errorf("post-recovery check: %+v, want genuine allow", v)
	}

	// The outage left an audit trail: degraded entries and a recovery.
	var degraded, recovered int
	for _, e := range log.Entries() {
		switch e.Action {
		case audit.ActionDegraded:
			degraded++
		case audit.ActionRecovered:
			recovered++
		}
	}
	if degraded == 0 || recovered != 1 {
		t.Errorf("audit: degraded=%d recovered=%d", degraded, recovered)
	}
}

// Advisory mode fails OPEN: during an outage release checks are allowed but
// flagged degraded so the UI can warn.
func TestFailoverAdvisoryFailsOpen(t *testing.T) {
	cs := newChaosService(t, policy.ModeAdvisory)
	clk := newFakeClock()
	f := newFailover(t, cs, policy.ModeAdvisory, clk, nil)

	var events []DegradedEvent
	var mu sync.Mutex
	f.cfg.OnDegraded = func(e DegradedEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}

	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	v, err := f.CheckText("anything at all", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow || !v.Degraded {
		t.Fatalf("advisory degraded check: %+v, want degraded allow", v)
	}
	if len(v.Violating) != 0 {
		t.Errorf("advisory fail-open verdict carries violations: %v", v.Violating)
	}
	v, err = f.CheckUpload("wiki/x#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionAllow || !v.Degraded {
		t.Fatalf("advisory degraded upload: %+v, want degraded allow", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0].Op != "check" || events[1].Op != "upload" {
		t.Errorf("events=%+v", events)
	}
}

// Enforcing and encrypting modes fail CLOSED for uploads during an outage.
func TestFailoverEncryptingFailsClosed(t *testing.T) {
	cs := newChaosService(t, policy.ModeEncrypting)
	clk := newFakeClock()
	f := newFailover(t, cs, policy.ModeEncrypting, clk, nil)
	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	v, err := f.CheckUpload("wiki/x#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != policy.DecisionBlock || !v.Degraded {
		t.Fatalf("encrypting degraded upload: %+v, want degraded block", v)
	}
}

// A full replay queue rejects the newest observation (counted as dropped)
// rather than evicting older ones, preserving order and exactly-once
// delivery of everything that was accepted.
func TestFailoverQueueLimit(t *testing.T) {
	cs := newChaosService(t, policy.ModeEnforcing)
	clk := newFakeClock()
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         10 * time.Second,
		Clock:            clk,
	})
	f, err := NewFailoverEngine(FailoverConfig{
		Client: cs.client, Mode: policy.ModeEnforcing, Breaker: breaker, QueueLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	segs := []segment.ID{"wiki/q1#p0", "wiki/q2#p0", "wiki/q3#p0"}
	for i, seg := range segs {
		if _, err := f.ObserveEdit(seg, "wiki", fmt.Sprintf("queued paragraph number %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := f.Stats()
	if stats.QueueLen != 2 || stats.Dropped != 1 {
		t.Fatalf("stats=%+v, want 2 queued / 1 dropped", stats)
	}

	cs.injector.ClearRules()
	clk.Advance(11 * time.Second)
	if err := f.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := cs.recorder.Order()
	if len(order) != 2 || order[0] != segs[0] || order[1] != segs[1] {
		t.Errorf("replayed order=%v, want first two accepted segments", order)
	}
	if cs.recorder.Count(segs[2]) != 0 {
		t.Error("dropped observation was delivered")
	}
}

// A mid-drain relapse keeps the remainder queued and re-degrades; the next
// recovery finishes the job without duplicating anything.
func TestFailoverMidDrainRelapse(t *testing.T) {
	cs := newChaosService(t, policy.ModeEnforcing)
	clk := newFakeClock()
	f := newFailover(t, cs, policy.ModeEnforcing, clk, nil)

	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	segs := []segment.ID{"wiki/r1#p0", "wiki/r2#p0", "wiki/r3#p0"}
	for i, seg := range segs {
		if _, err := f.ObserveEdit(seg, "wiki", fmt.Sprintf("relapse paragraph number %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Breaker: 3 observe failures opened it.
	if got := f.Breaker().State(); got != resilience.StateOpen {
		t.Fatalf("breaker=%v, want open", got)
	}

	// Recovery that immediately relapses: /healthz answers but the first
	// replayed observe dies on the wire. The drain must stop, keep the
	// whole queue, and re-mark the engine degraded — never discard or
	// duplicate an undelivered item.
	cs.injector.ClearRules()
	cs.injector.AddRule(faultinject.Rule{
		PathPrefix: "/v1/observe", Kind: faultinject.KindConnError, Times: 1,
	})
	clk.Advance(11 * time.Second)
	if err := f.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.QueueLen != 3 || stats.Replayed != 0 {
		t.Fatalf("after relapse: stats=%+v, want 3 still queued / 0 replayed", stats)
	}

	// Second, clean recovery drains everything. The fault budget (Times: 1)
	// is spent; the breaker never re-opened (one failure < threshold), so a
	// plain probe triggers the drain immediately.
	if err := f.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats = f.Stats()
	if stats.QueueLen != 0 || stats.Replayed != 3 {
		t.Fatalf("after second recovery: stats=%+v", stats)
	}
	for _, seg := range segs {
		if n := cs.recorder.Count(seg); n != 1 {
			t.Errorf("segment %s delivered %d times, want exactly once", seg, n)
		}
	}
	order := cs.recorder.Order()
	want := []segment.ID{segs[0], segs[1], segs[2]}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d]=%s, want %s", i, order[i], want[i])
		}
	}
}

// Acceptance criterion: no retry is ever issued for a non-idempotent
// request whose body was delivered upstream *unless the sender opted in
// with an Idempotency-Key* — asserted with the fault injector's delivery
// counter. (The tagserver Client does opt in — every mutation becomes an
// idempotent WAL record — so the keyless contract is pinned with a raw
// request here, and the opt-in behaviour in the test that follows.)
func TestNoRetryForDeliveredPost(t *testing.T) {
	srv, _ := newService(t)
	inj := faultinject.New(srv.Client().Transport, 1)
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/check", Kind: faultinject.KindResetAfterSend})
	rt := resilience.NewRetryTransport(inj, resilience.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	httpc := &http.Client{Transport: rt}

	resp, err := httpc.Post(srv.URL+"/v1/check", "application/json",
		strings.NewReader(`{"device":"laptop","dest":"docs","hashes":[1,2,3]}`))
	if err == nil {
		resp.Body.Close()
		t.Fatal("expected error for reset-after-send")
	}
	if got := inj.Delivered("POST", "/v1/check"); got != 1 {
		t.Errorf("delivered=%d, want exactly 1 (no replay of a delivered keyless POST)", got)
	}
	if got := inj.Attempts("/v1/check"); got != 1 {
		t.Errorf("attempts=%d, want 1 — a delivered keyless POST must never be retried", got)
	}
}

// The Client marks its requests replay-safe with an Idempotency-Key, so
// an ambiguous failure (reset after delivery) IS retried and the call
// succeeds on the second attempt.
func TestClientPostsCarryIdempotencyKey(t *testing.T) {
	srv, _ := newService(t)
	inj := faultinject.New(srv.Client().Transport, 1)
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/check", Kind: faultinject.KindResetAfterSend, Times: 1})
	client, err := NewClient(srv.URL, "laptop", fpConfig(),
		WithTransport(inj),
		WithRetry(resilience.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Check("some text heading for the wire", "docs"); err != nil {
		t.Fatalf("check with idempotency key should survive one reset: %v", err)
	}
	if got := inj.Attempts("/v1/check"); got != 2 {
		t.Errorf("attempts=%d, want 2 (one reset + one successful retry)", got)
	}
}

// The inverse: a POST that provably never left the device IS retried, and
// the server still receives the body exactly once.
func TestRetryForUnsentPost(t *testing.T) {
	srv, _ := newService(t)
	inj := faultinject.New(srv.Client().Transport, 1)
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/check", Kind: faultinject.KindConnError, Times: 1})
	client, err := NewClient(srv.URL, "laptop", fpConfig(),
		WithTransport(inj),
		WithRetry(resilience.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.Check("some text heading for the wire", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "allow" {
		t.Errorf("verdict=%+v", v)
	}
	if got := inj.Attempts("/v1/check"); got != 2 {
		t.Errorf("attempts=%d, want 2 (one failure, one retry)", got)
	}
	if got := inj.Delivered("POST", "/v1/check"); got != 1 {
		t.Errorf("delivered=%d, want exactly 1", got)
	}
}

// /healthz round-trips through the client, and a broken service is
// classified unavailable.
func TestHealthProbe(t *testing.T) {
	srv, _ := newService(t)
	client, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("health against live service: %v", err)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "on fire", http.StatusInternalServerError)
	}))
	defer dead.Close()
	sick, err := NewClient(dead.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sick.Health(context.Background()); !IsUnavailable(err) {
		t.Errorf("health against 500 service: err=%v, want unavailable", err)
	}
}

// Stats (and every other call) must inspect the status code: a 5xx is an
// unavailability error, a 4xx a plain error — never silently decoded.
func TestStatusClassification(t *testing.T) {
	var status int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", status)
	}))
	defer srv.Close()
	client, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}

	status = http.StatusServiceUnavailable
	if _, err := client.Stats(); !IsUnavailable(err) {
		t.Errorf("stats with 503: err=%v, want unavailable", err)
	}
	status = http.StatusForbidden
	_, err = client.Stats()
	if err == nil {
		t.Fatal("stats with 403 succeeded")
	}
	if IsUnavailable(err) {
		t.Errorf("4xx misclassified as unavailability: %v", err)
	}
	if !strings.Contains(err.Error(), "403") {
		t.Errorf("status missing from error: %v", err)
	}
}

// A truncated or malformed response body is unavailability, not a verdict.
func TestMalformedResponseIsUnavailable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"decision": "allo`) //nolint:errcheck
	}))
	defer srv.Close()
	client, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Check("text heading for the wire", "docs"); !IsUnavailable(err) {
		t.Errorf("err=%v, want unavailable", err)
	}
}

// The server bounds request bodies: anything past the limit is rejected
// with 413 before it reaches the decision engine.
func TestServerBodyLimit(t *testing.T) {
	_, engine := newService(t)
	server, err := NewServer(engine, WithMaxBodyBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	big := fmt.Sprintf(`{"device":"d","service":"wiki","seg":"s#p0","hashes":[%s1]}`,
		strings.Repeat("1,", 4096))
	resp, err := http.Post(srv.URL+"/v1/observe", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status=%d, want 413", resp.StatusCode)
	}

	small := `{"device":"d","service":"wiki","seg":"s#p0","hashes":[1,2,3]}`
	resp, err = http.Post(srv.URL+"/v1/observe", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body status=%d", resp.StatusCode)
	}
}

// The client never ships without a timeout unless explicitly disabled.
func TestClientDefaultTimeout(t *testing.T) {
	client, err := NewClient("http://tags.example", "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if client.http.Timeout != DefaultClientTimeout {
		t.Errorf("default timeout=%v, want %v", client.http.Timeout, DefaultClientTimeout)
	}
	client, err = NewClient("http://tags.example", "laptop", fpConfig(), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if client.http.Timeout != time.Second {
		t.Errorf("timeout=%v after WithTimeout", client.http.Timeout)
	}
}

// Caller context cancellation aborts a remote call promptly.
func TestClientContextCancel(t *testing.T) {
	blocked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer srv.Close()
	defer close(blocked)
	client, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.CheckCtx(ctx, "text heading for the wire", "docs"); err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestFailoverConfigValidation(t *testing.T) {
	if _, err := NewFailoverEngine(FailoverConfig{}); err == nil {
		t.Error("nil client accepted")
	}
	client, err := NewClient("http://x", "d", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFailoverEngine(FailoverConfig{Client: client, Mode: policy.Mode(99)}); err == nil {
		t.Error("invalid mode accepted")
	}
}

// The background prober recovers a degraded engine without manual Probe
// calls.
func TestFailoverBackgroundProber(t *testing.T) {
	cs := newChaosService(t, policy.ModeEnforcing)
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Millisecond,
	})
	f, err := NewFailoverEngine(FailoverConfig{
		Client:        cs.client,
		Mode:          policy.ModeEnforcing,
		Breaker:       breaker,
		ProbeInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError})
	if _, err := f.ObserveEdit("wiki/bg#p0", "wiki", "background prober paragraph"); err != nil {
		t.Fatal(err)
	}
	if f.Stats().QueueLen != 1 {
		t.Fatalf("stats=%+v", f.Stats())
	}
	cs.injector.ClearRules()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := f.Stats(); s.QueueLen == 0 && s.Replayed == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background prober never drained the queue: stats=%+v", f.Stats())
}

// Race-hammer: concurrent edits and checks while the service flaps. Run
// under -race; the invariant checked at the end is exactly-once delivery of
// every accepted observation.
func TestFailoverConcurrentChaos(t *testing.T) {
	cs := newChaosService(t, policy.ModeEnforcing)
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 2,
		Cooldown:         time.Millisecond,
	})
	f, err := NewFailoverEngine(FailoverConfig{
		Client:  cs.client,
		Mode:    policy.ModeEnforcing,
		Breaker: breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Probabilistic connection failures on every endpoint.
	cs.injector.AddRule(faultinject.Rule{Kind: faultinject.KindConnError, P: 0.3})

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seg := segment.ID(fmt.Sprintf("wiki/w%d#p%d", w, i))
				if _, err := f.ObserveEdit(seg, "wiki", fmt.Sprintf("concurrent paragraph %d from worker %d", i, w)); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				if i%5 == 0 {
					if _, err := f.CheckText("benign concurrent note", "docs"); err != nil {
						t.Errorf("check: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Heal the service and drain whatever is still queued.
	cs.injector.ClearRules()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && f.Stats().QueueLen > 0 {
		_ = f.Probe(context.Background())
		_, _ = f.CheckText("drain trigger", "docs")
		time.Sleep(2 * time.Millisecond)
	}

	stats := f.Stats()
	if stats.QueueLen != 0 {
		t.Fatalf("queue never drained: stats=%+v", stats)
	}
	// Exactly-once: every segment the server received arrived exactly once,
	// and direct+replayed deliveries account for every observation (none
	// were dropped: the default queue bound far exceeds the workload).
	if stats.Dropped != 0 {
		t.Fatalf("observations dropped under default queue limit: %+v", stats)
	}
	total := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			seg := segment.ID(fmt.Sprintf("wiki/w%d#p%d", w, i))
			n := cs.recorder.Count(seg)
			if n != 1 {
				t.Errorf("segment %s delivered %d times, want exactly once", seg, n)
			}
			total += n
		}
	}
	if total != workers*perWorker {
		t.Errorf("server saw %d observations, want %d", total, workers*perWorker)
	}
}
