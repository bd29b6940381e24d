package tagserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// postObserve sends one observe request and returns the response.
func postObserve(t *testing.T, base string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(ObserveRequest{Seg: "wiki/a#p0", Service: "wiki", Hashes: []uint32{1, 2, 3}})
	resp, err := http.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDegradedDiskAnswers503WithRetryAfter: a fail-closed node whose disk
// stops accepting writes must answer observes with 503 + Retry-After (the
// probe cadence) and expose the degradation on /healthz and /v1/metrics —
// and go back to 200 once the disk heals.
func TestDegradedDiskAnswers503WithRetryAfter(t *testing.T) {
	w := newTraceWorld(t)
	fs := faultinject.NewMemFS(42)
	durable, err := store.OpenDurable(store.DurableOptions{
		Dir:        "/data",
		FS:         fs,
		Fsync:      wal.SyncAlways,
		ProbeEvery: 7 * time.Second, // manual recovery below; no background flapping
	}, w.tracker, w.registry)
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

	// Healthy baseline.
	resp := postObserve(t, srv.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy observe: status %d", resp.StatusCode)
	}

	// Kill the disk. The next journalled mutation degrades the node.
	fs.FailWritesAfter(0)
	resp = postObserve(t, srv.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded observe: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q (the probe cadence)", got, "7")
	}

	// Degradation is visible on /healthz...
	health := getHealth(t, srv.URL)
	if health.Storage == nil {
		t.Fatal("healthz missing storage block")
	}
	if !health.Storage.DiskDegraded || health.Storage.DegradedCause != "eio" {
		t.Fatalf("storage block = %+v, want DiskDegraded with cause eio", health.Storage)
	}
	// ...and on /v1/metrics.
	metrics := getBody(t, srv.URL, "/v1/metrics")
	if !strings.Contains(metrics, "bf_disk_degraded 1") {
		t.Error("metrics missing bf_disk_degraded 1")
	}

	// Heal the disk; recovery re-admits writes.
	fs.ClearWriteError()
	if ok, err := durable.ProbeRecover(); !ok {
		t.Fatalf("probe recover: %v", err)
	}
	resp = postObserve(t, srv.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered observe: status %d", resp.StatusCode)
	}
	metrics = getBody(t, srv.URL, "/v1/metrics")
	if !strings.Contains(metrics, "bf_disk_degraded 0") {
		t.Error("metrics still report bf_disk_degraded 1 after recovery")
	}
	if !strings.Contains(metrics, "bf_disk_recoveries_total 1") {
		t.Error("metrics missing bf_disk_recoveries_total 1")
	}
}

// TestHealthzStorageBlockAndScrubMetrics: the storage block reports scrub
// freshness and quarantine counts, and the bf_scrub_* series appear on
// /v1/metrics.
func TestHealthzStorageBlockAndScrubMetrics(t *testing.T) {
	w := newTraceWorld(t)
	fs := faultinject.NewMemFS(42)
	durable, err := store.OpenDurable(store.DurableOptions{
		Dir:   "/data",
		FS:    fs,
		Fsync: wal.SyncAlways,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	w.engine.SetJournal(durable)

	o := obs.New(nil, 0)
	server, err := NewServer(w.engine, WithObs(o), withDurable(durable))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	// Seal a segment so the scrub pass has frames to verify, then scrub.
	if _, err := w.engine.ObserveEdit("wiki/a#p0", "wiki", "launch codes and rollout schedule for atlas"); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	if n, err := durable.ScrubPass(); n != 0 || err != nil {
		t.Fatalf("scrub pass: corruptions=%d err=%v", n, err)
	}

	health := getHealth(t, srv.URL)
	if health.Storage == nil {
		t.Fatal("healthz missing storage block")
	}
	st := health.Storage
	if st.ScrubPasses != 1 {
		t.Errorf("ScrubPasses = %d, want 1", st.ScrubPasses)
	}
	if st.FramesVerified == 0 {
		t.Error("FramesVerified = 0 after scrubbing a sealed segment")
	}
	if st.LastScrubAge == "" {
		t.Error("LastScrubAge empty after a pass")
	} else if _, err := time.ParseDuration(st.LastScrubAge); err != nil {
		t.Errorf("LastScrubAge %q is not a duration: %v", st.LastScrubAge, err)
	}
	if st.QuarantinedFiles != 0 || st.DiskDegraded {
		t.Errorf("clean node reports quarantine/degradation: %+v", st)
	}

	metrics := getBody(t, srv.URL, "/v1/metrics")
	for _, want := range []string{
		"bf_scrub_frames_verified_total",
		"bf_scrub_corruptions_found_total 0",
		"bf_scrub_quarantines_total 0",
		"bf_scrub_last_pass_age_seconds",
		"bf_quarantined_files 0",
		"bf_disk_degraded 0",
		"bf_scrub_passes_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
