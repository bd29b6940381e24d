package tagserver

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
)

// getHealth fetches and decodes /healthz.
func getHealth(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getBody fetches one path and returns the body as a string.
func getBody(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestHealthzReplicationBlock covers the /healthz replication block: the
// node's role, fencing term, and byte/record lag must round-trip so
// callers can bound read staleness.
func TestHealthzReplicationBlock(t *testing.T) {
	_, engine := newService(t)
	status := HealthReplication{
		Role:           "replica",
		Term:           7,
		Primary:        "http://primary:7000",
		Position:       "3,128",
		LagRecords:     5,
		LagBytes:       4096,
		AppliedRecords: 41,
		Bootstraps:     2,
		Connected:      true,
		LastError:      "transient: conn reset",
	}
	server, err := NewServer(engine, WithReplicationStatus(func() HealthReplication { return status }))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	health := getHealth(t, srv.URL)
	if health.Replication == nil {
		t.Fatal("healthz missing replication block")
	}
	got := *health.Replication
	if got != status {
		t.Fatalf("replication block mismatch:\n got %+v\nwant %+v", got, status)
	}

	// The same numbers surface as Prometheus gauges on /v1/metrics.
	metrics := getBody(t, srv.URL, "/v1/metrics")
	for _, want := range []string{
		`bf_repl_role{role="replica"} 1`,
		"bf_repl_term 7",
		"bf_repl_lag_records 5",
		"bf_repl_lag_bytes 4096",
		"bf_repl_applied_records 41",
		"bf_repl_bootstraps_total 2",
		"bf_repl_connected 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealthzNoReplication: a standalone server reports no replication
// block at all (nil, not zero-valued).
func TestHealthzNoReplication(t *testing.T) {
	_, engine := newService(t)
	server, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()
	health := getHealth(t, srv.URL)
	if health.Replication != nil {
		t.Fatalf("standalone server grew a replication block: %+v", health.Replication)
	}
	if health.Durability != nil {
		t.Fatalf("journal-less server grew a durability block: %+v", health.Durability)
	}
}

// TestObsGaugesOnMetrics: with durability + replication sources
// installed, their series appear on /v1/metrics (lag bytes, term,
// checkpoint age, the fsync histogram) beside the server's own.
func TestObsGaugesOnMetrics(t *testing.T) {
	_, engine := newService(t)
	// One journal's statistics after a checkpoint and an fsync.
	fsyncs := obs.NewHistogram(nil)
	fsyncs.Observe(200 * time.Microsecond)
	durability := store.DurabilityStats{Checkpoints: 1, LastCheckpointAt: time.Now()}
	durability.WAL.Fsyncs = 1
	durability.WAL.FsyncLatency = fsyncs.Snapshot()

	o := obs.New(nil, 0)
	server, err := NewServer(engine,
		WithObs(o),
		WithDurabilitySource(func() (store.DurabilityStats, bool) { return durability, true }),
		WithReplicationStatus(func() HealthReplication {
			return HealthReplication{Role: "replica", Term: 9, LagBytes: 1234, Connected: true}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	if _, err := engine.ObserveEdit("wiki/a#p0", "wiki", "customer escalation about data residency"); err != nil {
		t.Fatal(err)
	}

	metrics := getBody(t, srv.URL, "/v1/metrics")
	for _, want := range []string{
		"bf_repl_lag_bytes 1234",
		"bf_repl_term 9",
		`bf_repl_role{role="replica"} 1`,
		"bf_repl_connected 1",
		"bf_decision_cache_misses_total 0",
		`bf_wal_fsync_seconds_bucket{le="+Inf"}`,
		"bf_checkpoints_total 1",
		"bf_checkpoint_age_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("obs metrics missing %q", want)
		}
	}

	// Traces surface on /v1/debug/traces.
	traces := getBody(t, srv.URL, "/v1/debug/traces")
	if !strings.Contains(traces, `"spans"`) {
		t.Errorf("/v1/debug/traces not serving span JSON: %s", traces)
	}
}

// diskJournal is a journal on a dead disk: every observe fails. The test
// using it makes no other mutation.
type diskJournal struct{ policy.Journal }

func (diskJournal) Begin() func() { return func() {} }

func (diskJournal) Observe(context.Context, segment.ID, string, segment.Granularity, []uint32) error {
	return errors.New("wal append: input/output error")
}

// TestDegradedRetryAfterIsProbeCadence: a write refused while the disk is
// degraded answers 503 with a Retry-After of the store's probe cadence,
// rounded up to whole seconds and at least one.
func TestDegradedRetryAfterIsProbeCadence(t *testing.T) {
	_, engine := newService(t)
	engine.SetJournal(diskJournal{})
	for _, tc := range []struct {
		probe time.Duration
		want  string
	}{{7 * time.Second, "7"}, {2500 * time.Millisecond, "3"}, {0, "1"}} {
		disk := store.DiskState{Degraded: true, Cause: "eio", ProbeEvery: tc.probe}
		server, err := NewServer(engine, WithDurabilitySource(func() (store.DurabilityStats, bool) {
			return store.DurabilityStats{Disk: disk}, true
		}))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(`{"seg":"wiki/a#p0","service":"wiki","hashes":[1,2,3]}`)))
		if got := rec.Header().Get("Retry-After"); rec.Code != http.StatusServiceUnavailable || got != tc.want {
			t.Errorf("probe every %v: status %d, Retry-After %q; want 503, %q", tc.probe, rec.Code, got, tc.want)
		}
	}
}

// TestHealthzPolicyBlock covers the /healthz policy block: nodes started
// from a compiled policy advertise its fingerprint so operators can
// confirm fleet-wide policy agreement; nodes without one omit the block.
func TestHealthzPolicyBlock(t *testing.T) {
	_, engine := newService(t)
	server, err := NewServer(engine, WithPolicyInfo("deadbeef01", 4))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	health := getHealth(t, srv.URL)
	if health.Policy == nil {
		t.Fatal("healthz missing policy block")
	}
	if health.Policy.Hash != "deadbeef01" || health.Policy.Services != 4 {
		t.Fatalf("policy block mismatch: %+v", *health.Policy)
	}

	// No policy: block omitted entirely, and an empty hash is treated as
	// "no policy" rather than advertised.
	bare, err := NewServer(engine, WithPolicyInfo("", 9))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(bare)
	defer srv2.Close()
	if h := getHealth(t, srv2.URL); h.Policy != nil {
		t.Fatalf("policy block present without a policy: %+v", *h.Policy)
	}
}
