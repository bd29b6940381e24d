package node

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/proxy"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/tagserver"
)

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
	c, primary, standby := newGroup(t)

	// --- bfproxy in front of the tag API. The traced write must reach the
	// replica through the stream, which newGroup's bootstrap guarantees:
	// were it journalled before the bootstrap snapshot, no apply span
	// would exist.
	proxyObs := obs.New(nil, 0)
	fwd, err := proxy.New(proxy.Config{Upstream: &url.URL{Scheme: "http", Host: "primary"}, Obs: proxyObs, Transport: c.net})
	if err != nil {
		t.Fatal(err)
	}
	c.hosts.Handle("proxy", fwd)

	// --- client with a chaos transport: the first observe attempt dies
	// with a connection error before anything is sent, forcing the retry
	// layer to re-send (and record a retry span on the trace).
	inj := faultinject.New(c.hosts, 7)
	inj.AddRule(faultinject.Rule{
		PathPrefix: "/v1/observe", Method: http.MethodPost,
		Kind: faultinject.KindConnError, Times: 1,
	})
	clientObs := obs.New(nil, 0)
	dev, err := tagserver.NewClient("http://proxy", "dev-e2e", fingerprint.DefaultConfig(),
		tagserver.WithTransport(inj),
		tagserver.WithRetry(resilience.RetryPolicy{
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

	await(t, "the replica to apply the journalled observation", func() bool {
		st := standby.replica.Status()
		return st.Connected && st.AppliedRecords > 0 && st.LagRecords == 0
	})

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
	prim := spanNames(primary.obs, traceID)
	for _, want := range []string{"http.observe", "engine.observe", "wal.append"} {
		if prim[want] == 0 {
			t.Errorf("primary ring missing %s span: %v", want, prim)
		}
	}
	repl := spanNames(standby.obs, traceID)
	if repl["replica.apply"] == 0 {
		t.Errorf("replica ring missing replica.apply span: %v", repl)
	}

	// Privacy invariant: no span anywhere may carry the observed text.
	for _, o := range []*obs.Obs{clientObs, proxyObs, primary.obs, standby.obs} {
		for _, s := range o.Traces().Snapshot() {
			for k, v := range s.Attrs {
				if v == "the secret launch plan for the atlas project" {
					t.Fatalf("span %s attr %s leaked monitored text", s.Name, k)
				}
			}
		}
	}

	// The replicated state converged: the replica tracks the segment.
	if got := standby.mw.Tracker().Paragraphs().Stats().Segments; got == 0 {
		t.Error("replica applied no segments")
	}
}
