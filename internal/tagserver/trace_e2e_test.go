package tagserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/proxy"
	"github.com/lsds/browserflow/internal/replication"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// traceWorld is one engine stack for the trace E2E test.
type traceWorld struct {
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	engine   *policy.Engine
}

func newTraceWorld(t *testing.T) *traceWorld {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fpConfig(),
		Tpar:        0.3,
		Tdoc:        0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		t.Fatal(err)
	}
	return &traceWorld{tracker: tracker, registry: registry, engine: engine}
}

// spanNames collects the span names recorded for one trace ID.
func spanNames(o *obs.Obs, trace string) map[string]int {
	names := map[string]int{}
	for _, s := range o.Traces().Query(trace) {
		names[s.Name]++
	}
	return names
}

// TestTraceE2EChaos drives one Client write through bfproxy's
// forwarding path into a durable primary and out to a streaming replica,
// with a chaos transport injecting a connection error on the first
// attempt. One trace ID must stitch every hop: the client-side retry
// span, the proxy span, the primary's handler + engine + WAL spans, and
// the replica's apply span (carried inside the journalled record).
func TestTraceE2EChaos(t *testing.T) {
	// --- primary: engine + durable journal + replication log + tag API.
	pw := newTraceWorld(t)
	pdir := t.TempDir()
	durable, err := store.OpenDurable(store.DurableOptions{Dir: pdir, Fsync: wal.SyncAlways}, pw.tracker, pw.registry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	pw.engine.SetJournal(durable)

	pnode, err := replication.NewNode(replication.NodeOptions{
		Role: replication.RolePrimary, TermFile: filepath.Join(pdir, "TERM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	primaryObs := obs.New(nil, 0)
	rsvc := replication.NewService(pnode, replication.PrimaryOptions{MaxWait: time.Second}, t.Logf)
	rsvc.SetObs(primaryObs)
	rsvc.SetPrimary(replication.NewPrimary(pnode, durable, replication.PrimaryOptions{MaxWait: time.Second, Logf: t.Logf}))
	replSrv := httptest.NewServer(rsvc.Handler())
	t.Cleanup(replSrv.Close)

	tagServer, err := NewServer(pw.engine, WithObs(primaryObs), withDurable(durable))
	if err != nil {
		t.Fatal(err)
	}
	tagSrv := httptest.NewServer(tagServer)
	t.Cleanup(tagSrv.Close)

	// --- replica: own engine stack, tailing the primary's WAL.
	rw := newTraceWorld(t)
	rdir := t.TempDir()
	rnode, err := replication.NewNode(replication.NodeOptions{
		Role: replication.RoleReplica, Primary: replSrv.URL, TermFile: filepath.Join(rdir, "TERM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	replicaObs := obs.New(nil, 0)
	replica, err := replication.OpenReplica(rnode, rw.engine, replication.ReplicaOptions{
		Durable:      store.DurableOptions{Dir: rdir, Logf: t.Logf},
		PollWait:     200 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
		Obs:          replicaObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		replica.Stop()
		replica.Durable().Close()
	})
	replica.Start()
	// The traced write must reach the replica through the stream: were it
	// journalled before the bootstrap snapshot, no apply span would exist.
	for deadline := time.Now().Add(10 * time.Second); replica.Status().Bootstraps == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("replica never bootstrapped: %+v", replica.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- bfproxy in front of the tag API.
	upstream, err := url.Parse(tagSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxyObs := obs.New(nil, 0)
	fwd, err := proxy.New(proxy.Config{Upstream: upstream, Obs: proxyObs})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(fwd)
	t.Cleanup(proxySrv.Close)

	// --- client with a chaos transport: the first observe attempt dies
	// with a connection error before anything is sent, forcing the retry
	// layer to re-send (and record a retry span on the trace).
	inj := faultinject.New(http.DefaultTransport, 7)
	inj.AddRule(faultinject.Rule{
		PathPrefix: "/v1/observe", Method: http.MethodPost,
		Kind: faultinject.KindConnError, Times: 1,
	})
	clientObs := obs.New(nil, 0)
	dev, err := NewClient(proxySrv.URL, "dev-e2e", fpConfig(),
		WithTransport(inj),
		WithRetry(resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			Sleep:       func(time.Duration) {},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	traceID := clientObs.NewTraceID()
	ctx := obs.WithTrace(context.Background(), traceID, clientObs.Traces())
	if _, err := dev.ObserveCtx(ctx, "wiki", "wiki/launch#p0", "the secret launch plan for the atlas project"); err != nil {
		t.Fatalf("observe through proxy: %v", err)
	}
	if got := inj.Attempts("/v1/observe"); got < 2 {
		t.Fatalf("chaos transport saw %d attempts, want >= 2 (one injected failure + retry)", got)
	}

	// --- wait for the replica to apply the journalled observation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := replica.Status()
		if st.Connected && st.AppliedRecords > 0 && st.LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- one trace ID must cover every hop, each span in the ring of the
	// node that did the work.
	client := spanNames(clientObs, traceID)
	if client["resilience.retry"] == 0 {
		t.Errorf("client ring missing resilience.retry span: %v", client)
	}
	prox := spanNames(proxyObs, traceID)
	if prox["proxy.request"] == 0 {
		t.Errorf("proxy ring missing proxy.request span: %v", prox)
	}
	prim := spanNames(primaryObs, traceID)
	for _, want := range []string{"http.observe", "engine.observe", "wal.append"} {
		if prim[want] == 0 {
			t.Errorf("primary ring missing %s span: %v", want, prim)
		}
	}
	repl := spanNames(replicaObs, traceID)
	if repl["replica.apply"] == 0 {
		t.Errorf("replica ring missing replica.apply span: %v", repl)
	}

	// Privacy invariant: no span anywhere may carry the observed text.
	for _, o := range []*obs.Obs{clientObs, proxyObs, primaryObs, replicaObs} {
		for _, s := range o.Traces().Snapshot() {
			for k, v := range s.Attrs {
				if v == "the secret launch plan for the atlas project" {
					t.Fatalf("span %s attr %s leaked monitored text", s.Name, k)
				}
			}
		}
	}

	// The replicated state converged: the replica tracks the segment.
	if got := rw.tracker.Paragraphs().Stats().Segments; got == 0 {
		t.Error("replica applied no segments")
	}
}
