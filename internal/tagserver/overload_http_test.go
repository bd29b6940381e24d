package tagserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// wedgedEngine blocks every observe until its gate closes, wedging an
// admission pipeline's workers so tests can saturate the queues.
type wedgedEngine struct {
	gate chan struct{}
	once sync.Once
}

func (e *wedgedEngine) wait() { <-e.gate }

func (e *wedgedEngine) release() { e.once.Do(func() { close(e.gate) }) }

func (e *wedgedEngine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	e.wait()
	return policy.Verdict{Decision: policy.DecisionAllow, Seg: seg, Service: service}, nil
}

func (e *wedgedEngine) ObserveDocumentEditFPCtx(ctx context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	e.wait()
	return policy.Verdict{Decision: policy.DecisionAllow, Seg: doc, Service: service}, nil
}

func (e *wedgedEngine) ObserveBatchFPCtx(ctx context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error) {
	e.wait()
	out := make([]policy.Verdict, len(items))
	for i, it := range items {
		out[i] = policy.Verdict{Decision: policy.DecisionAllow, Seg: it.Seg, Service: service}
	}
	return out, nil
}

// awaitAdmission polls the pipeline until its stats satisfy ok.
func awaitAdmission(t *testing.T, p *admission.Pipeline, what string, ok func(admission.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %+v", what, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControlPlaneLiveUnderSaturation wedges the admission workers, fills
// the interactive queue to capacity, and asserts the server's control
// plane stays live: /healthz and /v1/metrics answer promptly (reporting
// the saturation), and further observes are shed with an immediate 429 +
// Retry-After instead of queueing behind the backlog.
func TestControlPlaneLiveUnderSaturation(t *testing.T) {
	// One bundle for admission and the server, as bftagd wires them: each
	// registers the series it owns on the node's one registry.
	o := obs.New(nil, 0)
	wedged := &wedgedEngine{gate: make(chan struct{})}
	pipeline, err := admission.New(wedged, admission.Config{
		InteractiveQueue: 4,
		BulkQueue:        2,
		Workers:          1,
		Obs:              o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		wedged.release()
		pipeline.Close(context.Background())
	}()

	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fpConfig(),
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(engine, WithObs(o), WithAdmission(pipeline))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()
	defer wedged.release() // before srv.Close, which waits for the wedged handlers

	observe := func(seg string) *http.Response {
		body, _ := json.Marshal(ObserveRequest{
			Service: "docs",
			Seg:     segment.ID(seg),
			Hashes:  []uint32{1, 2, 3},
		})
		resp, err := http.Post(srv.URL+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// One observe wedges the worker; once it has left the queue (sent
	// together, the fifth could find the first still queued and be shed),
	// four more fill it. Distinct segments prevent coalescing from folding
	// them together.
	responses := make(chan *http.Response, 5)
	send := func(i int) { go func() { responses <- observe(fmt.Sprintf("doc/%d#p0", i)) }() }
	send(0)
	awaitAdmission(t, pipeline, "worker never wedged", func(s admission.Stats) bool {
		return s.Interactive.Submitted == 1 && s.Interactive.Depth == 0
	})
	for i := 1; i < 5; i++ {
		send(i)
	}
	awaitAdmission(t, pipeline, "queue never saturated", func(s admission.Stats) bool { return s.Interactive.Depth == 4 })

	// Overflow arrival: shed fast with 429 + Retry-After.
	start := time.Now()
	resp := observe("doc/overflow#p0")
	elapsed := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status=%d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if elapsed > time.Second {
		t.Errorf("shed took %s, want immediate rejection", elapsed)
	}

	// /healthz answers promptly and reports the saturated lane.
	start = time.Now()
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("healthz took %s under saturation", time.Since(start))
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status=%d", hr.StatusCode)
	}
	var health HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Admission == nil {
		t.Fatal("healthz missing admission section")
	}
	if health.Admission.Interactive.Depth != 4 {
		t.Errorf("healthz interactive depth=%d, want 4", health.Admission.Interactive.Depth)
	}
	if health.Admission.Interactive.Shed == 0 {
		t.Error("healthz reports zero sheds after a 429")
	}

	// /v1/metrics answers promptly and exposes the admission gauges.
	start = time.Now()
	mr, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("metrics took %s under saturation", time.Since(start))
	}
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics status=%d", mr.StatusCode)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`bf_admission_queue_depth{lane="interactive"} 4`,
		`bf_admission_shed_total{lane="interactive",reason="queue-full"} 1`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Release the worker: queued observes complete, backlog drains, and
	// the next arrival is admitted again.
	wedged.release()
	for i := 0; i < 5; i++ {
		r := <-responses
		if r.StatusCode != http.StatusOK {
			t.Errorf("queued observe status=%d, want 200", r.StatusCode)
		}
		r.Body.Close()
	}
	resp2 := observe("doc/after#p0")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-recovery status=%d, want 200", resp2.StatusCode)
	}
}
