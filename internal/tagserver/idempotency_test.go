package tagserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/tdm"
)

// newIdemWorld builds an engine stack with a fixed audit clock so state
// exports compare byte-for-byte.
func newIdemWorld(t *testing.T) (*policy.Engine, *disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fpConfig(),
		Tpar:        0.3,
		Tdoc:        0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLogWithClock(clock.NewFake(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))))
	if err := registry.RegisterService("docs", tdm.NewTagSet("confidential"), tdm.NewTagSet("confidential")); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		t.Fatal(err)
	}
	return engine, tracker, registry
}

// idemExport captures comparable state bytes: each database's snapshot and
// its codec-independent digest, then the registry and the audit log.
func idemExport(t *testing.T, tracker *disclosure.Tracker, registry *tdm.Registry) []byte {
	t.Helper()
	var out []byte
	for _, db := range []*index.DB{tracker.Paragraphs(), tracker.Documents()} {
		out, _ = db.AppendSnapshot(out)
		out = fmt.Appendf(out, "%+v", db.Digest())
	}
	for _, v := range []interface{}{registry.Export(), registry.Audit().Entries()} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestObserveBatchRetryIsIdempotent is the cardinal write-retry safety
// property of the replicated deployment: an ObserveBatch whose first
// delivery is acknowledged by the server but whose response is lost (a
// reset after delivery — the ambiguous failure) is retried by the
// client because the request carries an Idempotency-Key, the server
// applies it a second time, and the final state is byte-identical to a
// single application. Without this property, primary failover would
// risk double-counting disclosure on every in-flight flush.
func TestObserveBatchRetryIsIdempotent(t *testing.T) {
	// The service under test, with a flaky path in front of it.
	engine, tracker, registry := newIdemWorld(t)
	server, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	inj := faultinject.New(srv.Client().Transport, 1)
	inj.AddRule(faultinject.Rule{
		PathPrefix: "/v1/observe/batch",
		Kind:       faultinject.KindResetAfterSend,
		Times:      1,
	})
	client, err := NewClient(srv.URL, "laptop", fpConfig(),
		WithTransport(inj),
		WithRetry(resilience.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}),
	)
	if err != nil {
		t.Fatal(err)
	}

	items := []BatchItem{
		{Seg: "docs/plan#p0", Text: "the quarterly revenue forecast was revised downwards on friday"},
		{Seg: "docs/plan#p1", Text: "launch codes and rollout schedule for the atlas project"},
		{Seg: "docs/plan#p2", Text: "meeting notes from the security review of the billing system"},
	}
	verdicts, err := client.ObserveBatch("docs", items)
	if err != nil {
		t.Fatalf("batch should survive one reset-after-delivery: %v", err)
	}
	if len(verdicts) != len(items) {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), len(items))
	}

	// The ambiguous failure really did deliver the body twice.
	if got := inj.Delivered("POST", "/v1/observe/batch"); got != 2 {
		t.Fatalf("delivered=%d, want 2 (first delivery acked, response lost, retried)", got)
	}

	// Control: the same batch applied exactly once.
	controlEngine, controlTracker, controlRegistry := newIdemWorld(t)
	controlSrv := httptest.NewServer(mustServer(t, controlEngine))
	defer controlSrv.Close()
	controlClient, err := NewClient(controlSrv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controlClient.ObserveBatch("docs", items); err != nil {
		t.Fatal(err)
	}

	got := idemExport(t, tracker, registry)
	want := idemExport(t, controlTracker, controlRegistry)
	if !bytes.Equal(got, want) {
		t.Fatalf("double-delivered batch diverged from single application\n double: %s\n single: %s", got, want)
	}
}

func mustServer(t *testing.T, engine *policy.Engine) *Server {
	t.Helper()
	s, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
