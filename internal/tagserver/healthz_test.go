package tagserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/replication"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
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
// withDurable hands the server an always-present journal's statistics.
func withDurable(d *store.Durable) ServerOption {
	return WithDurabilitySource(func() (store.DurabilityStats, bool) { return d.Stats(), true })
}

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
	w := newTraceWorld(t)
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
	server, err := NewServer(w.engine, WithReplicationStatus(func() HealthReplication { return status }))
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
	w := newTraceWorld(t)
	server, err := NewServer(w.engine)
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

// TestHealthzDurabilityBlock covers the durability fields: WAL record
// counts, checkpoint tallies and the checkpoint age that monitoring
// alerts on.
func TestHealthzDurabilityBlock(t *testing.T) {
	w := newTraceWorld(t)
	durable, err := store.OpenDurable(store.DurableOptions{Dir: t.TempDir(), Fsync: wal.SyncAlways}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	w.engine.SetJournal(durable)

	server, err := NewServer(w.engine, withDurable(durable))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	// Journal a mutation, then checkpoint so LastCheckpointAge appears.
	if _, err := w.engine.ObserveEdit("wiki/a#p0", "wiki", "quarterly revenue forecast revised downwards"); err != nil {
		t.Fatal(err)
	}
	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	health := getHealth(t, srv.URL)
	if health.Durability == nil {
		t.Fatal("healthz missing durability block")
	}
	d := health.Durability
	if d.WALRecords == 0 {
		t.Error("WALRecords = 0 after a journalled observe")
	}
	if d.Fsyncs == 0 {
		t.Error("Fsyncs = 0 under SyncAlways")
	}
	if d.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", d.Checkpoints)
	}
	if d.CheckpointErrors != 0 {
		t.Errorf("CheckpointErrors = %d, want 0", d.CheckpointErrors)
	}
	if d.LastCheckpointAge == "" {
		t.Error("LastCheckpointAge empty after a checkpoint")
	}
	if _, err := time.ParseDuration(d.LastCheckpointAge); err != nil {
		t.Errorf("LastCheckpointAge %q is not a duration: %v", d.LastCheckpointAge, err)
	}
}

// TestHealthzStandbyStorageBlocks: a standby's durable store is the one a
// primary runs, so — before any promotion — its /healthz carries the
// storage and durability blocks, scrub passes and checkpoints advance, and
// the segments it streams are pruned behind its own checkpoints.
func TestHealthzStandbyStorageBlocks(t *testing.T) {
	pw := newTraceWorld(t)
	durable, err := store.OpenDurable(store.DurableOptions{Dir: "/primary", FS: faultinject.NewMemFS(1), Fsync: wal.SyncNone}, pw.tracker, pw.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	pw.engine.SetJournal(durable)
	pnode, err := replication.NewNode(replication.NodeOptions{Role: replication.RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	rsvc := replication.NewService(pnode, replication.PrimaryOptions{}, t.Logf)
	rsvc.SetPrimary(replication.NewPrimary(pnode, durable, replication.PrimaryOptions{Logf: t.Logf}))
	replSrv := httptest.NewServer(rsvc.Handler())
	defer replSrv.Close()

	rw := newTraceWorld(t)
	rnode, err := replication.NewNode(replication.NodeOptions{Role: replication.RoleReplica, Primary: replSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := replication.OpenReplica(rnode, rw.engine, replication.ReplicaOptions{
		Durable: store.DurableOptions{
			Dir: "/standby", FS: faultinject.NewMemFS(2), Fsync: wal.SyncNone, Logf: t.Logf,
			CheckpointEvery: 5 * time.Millisecond, ScrubEvery: 5 * time.Millisecond,
		},
		PollWait: 20 * time.Millisecond, RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Durable().Close()
	defer replica.Stop()
	replica.Start()
	server, err := NewServer(rw.engine, withDurable(replica.Durable()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(replication.Guard(rnode, server, t.Logf))
	defer srv.Close()
	await := func(what string, cond func(HealthResponse) bool) HealthResponse {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			h := getHealth(t, srv.URL)
			if h.Storage == nil || h.Durability == nil {
				t.Fatalf("standby healthz lacks a storage or durability block: %+v", h)
			}
			if cond(h) {
				return h
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; healthz: storage %+v durability %+v", what, *h.Storage, *h.Durability)
			}
		}
	}

	// Six segments' worth of traffic: each round the primary seals one.
	h := await("bootstrap", func(h HealthResponse) bool { return h.Durability.WALSegments >= 1 })
	for round := 0; round < 6; round++ {
		prev := h
		for i := 0; i < 5; i++ {
			seg := fmt.Sprintf("wiki/r%d#p%d", round, i)
			if _, err := pw.engine.ObserveEdit("wiki/a#p0", "wiki", "quarterly revenue forecast revised downwards "+seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		h = await(fmt.Sprintf("round %d: scrub and checkpoint past %d/%d", round, prev.Storage.ScrubPasses, prev.Durability.Checkpoints),
			func(h HealthResponse) bool {
				return h.Storage.ScrubPasses > prev.Storage.ScrubPasses && h.Durability.Checkpoints > prev.Durability.Checkpoints
			})
		if h.Durability.WALSegments > 2 {
			t.Errorf("round %d: standby holds %d WAL segments; its checkpoints should prune behind the stream", round, h.Durability.WALSegments)
		}
	}
	if rnode.Role() != replication.RoleReplica || h.Storage.DiskDegraded || h.Durability.CheckpointErrors != 0 {
		t.Errorf("standby after six rollovers: role %s, storage %+v, durability %+v", rnode.Role(), *h.Storage, *h.Durability)
	}
}

// TestObsGaugesOnMetrics: with durability + replication sources
// installed, their series appear on /v1/metrics (lag bytes, term,
// checkpoint age, the fsync histogram) beside the server's own.
func TestObsGaugesOnMetrics(t *testing.T) {
	w := newTraceWorld(t)
	durable, err := store.OpenDurable(store.DurableOptions{Dir: t.TempDir(), Fsync: wal.SyncAlways}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	w.engine.SetJournal(durable)

	o := obs.New(nil, 0)
	server, err := NewServer(w.engine,
		WithObs(o),
		withDurable(durable),
		WithReplicationStatus(func() HealthReplication {
			return HealthReplication{Role: "replica", Term: 9, LagBytes: 1234, Connected: true}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	if _, err := w.engine.ObserveEdit("wiki/a#p0", "wiki", "customer escalation about data residency"); err != nil {
		t.Fatal(err)
	}
	if err := durable.Checkpoint(); err != nil {
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

// TestHealthzPolicyBlock covers the /healthz policy block: nodes started
// from a compiled policy advertise its fingerprint so operators can
// confirm fleet-wide policy agreement; nodes without one omit the block.
func TestHealthzPolicyBlock(t *testing.T) {
	w := newTraceWorld(t)
	server, err := NewServer(w.engine, WithPolicyInfo("deadbeef01", 4))
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
	bare, err := NewServer(newTraceWorld(t).engine, WithPolicyInfo("", 9))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(bare)
	defer srv2.Close()
	if h := getHealth(t, srv2.URL); h.Policy != nil {
		t.Fatalf("policy block present without a policy: %+v", *h.Policy)
	}
}
