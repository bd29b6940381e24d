package node

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/tagserver"
)

// TestHealthzDurabilityBlock covers the durability fields: WAL record
// counts, checkpoint tallies and the checkpoint age that monitoring
// alerts on.
func TestHealthzDurabilityBlock(t *testing.T) {
	c := newCluster(t)
	n := c.open("node", Config{})

	// Journal a mutation, then checkpoint so LastCheckpointAge appears.
	if _, err := n.mw.Engine().ObserveEdit("wiki/a#p0", "wiki", "quarterly revenue forecast revised downwards"); err != nil {
		t.Fatal(err)
	}
	if err := n.durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	d := c.getHealth("http://node").Durability
	if d == nil {
		t.Fatal("healthz missing durability block")
	}
	if d.WALRecords == 0 || d.Fsyncs == 0 || d.Checkpoints != 1 || d.CheckpointErrors != 0 {
		t.Errorf("durability block %+v: want journalled records, fsyncs under SyncAlways, one checkpoint and no checkpoint error", *d)
	}
	if _, err := time.ParseDuration(d.LastCheckpointAge); err != nil {
		t.Errorf("LastCheckpointAge %q after a checkpoint is not a duration: %v", d.LastCheckpointAge, err)
	}
}

// TestHealthzStandbyStorageBlocks: a standby's durable store is the one a
// primary runs, so — before any promotion — its /healthz carries the
// storage and durability blocks, each hour of its cadences runs one scrub
// pass and at least one checkpoint, and the segments it streams are pruned
// behind its own checkpoints.
func TestHealthzStandbyStorageBlocks(t *testing.T) {
	c := newCluster(t)
	clk := clock.NewFake(time.Unix(1000, 0))
	primary := c.open("primary", Config{Fsync: "none", Clock: clk})
	standby := c.open("standby", Config{
		ReplicaOf: primaryURL, Fsync: "none", Clock: clk,
		CheckpointEvery: time.Hour, ScrubEvery: time.Hour,
	})
	// awaitHealth waits until the standby's /healthz, which must carry the
	// storage and durability blocks, satisfies cond, stepping the clock
	// through any 200ms stream back-off (far short of the hourly cadences).
	var h tagserver.HealthResponse
	awaitHealth := func(what string, cond func() bool) {
		t.Helper()
		await(t, what, func() bool {
			clk.Advance(200 * time.Millisecond)
			if h = c.getHealth(standbyURL); h.Storage == nil || h.Durability == nil {
				t.Fatalf("standby healthz lacks a storage or durability block: %+v", h)
			}
			return cond()
		})
	}

	// Six segments' worth of traffic: each round the primary seals one.
	awaitHealth("bootstrap", func() bool { return h.Durability.WALSegments >= 1 })
	for round := 0; round < 6; round++ {
		prev := h
		for i := 0; i < 5; i++ {
			seg := fmt.Sprintf("wiki/r%d#p%d", round, i)
			if _, err := primary.mw.Engine().ObserveEdit("wiki/a#p0", "wiki", "quarterly revenue forecast revised downwards "+seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := primary.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		awaitHealth("the standby to hold the round", func() bool { return standby.mw.Tracker().Digest() == primary.mw.Tracker().Digest() })
		clk.Advance(time.Hour)
		awaitHealth(fmt.Sprintf("round %d: scrub and checkpoint past %d/%d", round, prev.Storage.ScrubPasses, prev.Durability.Checkpoints), func() bool {
			return h.Storage.ScrubPasses > prev.Storage.ScrubPasses && h.Durability.Checkpoints > prev.Durability.Checkpoints
		})
		if passes := h.Storage.ScrubPasses - prev.Storage.ScrubPasses; passes != 1 {
			t.Errorf("round %d: an hour ran %d scrub passes, want 1", round, passes)
		}
		if h.Durability.WALSegments > 2 {
			t.Errorf("round %d: standby holds %d WAL segments; its checkpoints should prune behind the stream", round, h.Durability.WALSegments)
		}
	}
	if h.Replication == nil || h.Replication.Role != "replica" || h.Storage.DiskDegraded || h.Durability.CheckpointErrors != 0 {
		t.Errorf("standby after six rollovers: replication %+v, storage %+v, durability %+v", h.Replication, *h.Storage, *h.Durability)
	}
}

// TestDegradedDiskAnswers503WithRetryAfter: a fail-closed node whose disk
// stops accepting writes must answer observes with 503 + Retry-After (the
// probe cadence) and expose the degradation on /healthz and /v1/metrics —
// and go back to 200 once the disk heals. A node runs its store at the
// default cadence; internal/tagserver's TestDegradedRetryAfterIsProbeCadence
// covers how the header follows other cadences.
func TestDegradedDiskAnswers503WithRetryAfter(t *testing.T) {
	c := newCluster(t)
	fs := faultinject.NewMemFS(42)
	// Enforcing: the node fails closed on a dead disk.
	n := c.open("node", Config{PolicyPath: writePolicy(t, "enforcing"), FS: fs})
	// postObserve sends one observe and returns its status and Retry-After.
	postObserve := func() (int, string) {
		resp, err := c.http.Post("http://node/v1/observe", "application/json", strings.NewReader(`{"seg":"wiki/a#p0","service":"wiki","hashes":[1,2,3]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Healthy baseline.
	if code, _ := postObserve(); code != http.StatusOK {
		t.Fatalf("healthy observe: status %d", code)
	}

	// Kill the disk. The next journalled mutation degrades the node.
	fs.FailWritesAfter(0)
	if code, retryAfter := postObserve(); code != http.StatusServiceUnavailable || retryAfter != "1" {
		t.Fatalf("degraded observe: status %d, Retry-After %q; want 503 and the store's default probe cadence, 1", code, retryAfter)
	}

	// Degradation is visible on /healthz...
	if st := c.getHealth("http://node").Storage; st == nil || !st.DiskDegraded || st.DegradedCause != "eio" {
		t.Fatalf("storage block = %+v, want DiskDegraded with cause eio", st)
	}
	// ...and on /v1/metrics.
	if _, metrics := c.do(http.MethodGet, "http://node/v1/metrics", ""); !strings.Contains(metrics, "bf_disk_degraded 1") {
		t.Error("metrics missing bf_disk_degraded 1")
	}

	// Heal the disk; recovery re-admits writes.
	fs.ClearWriteError()
	if ok, err := n.durable.ProbeRecover(); !ok {
		t.Fatalf("probe recover: %v", err)
	}
	if code, _ := postObserve(); code != http.StatusOK {
		t.Fatalf("recovered observe: status %d", code)
	}
	_, metrics := c.do(http.MethodGet, "http://node/v1/metrics", "")
	for _, want := range []string{"bf_disk_degraded 0", "bf_disk_recoveries_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics after recovery missing %q", want)
		}
	}
}

// TestHealthzStorageBlockAndScrubMetrics: the storage block reports scrub
// freshness and quarantine counts, and the bf_scrub_* series appear on
// /v1/metrics.
func TestHealthzStorageBlockAndScrubMetrics(t *testing.T) {
	c := newCluster(t)
	n := c.open("node", Config{})

	// Seal a segment so the scrub pass has frames to verify, then scrub.
	if _, err := n.mw.Engine().ObserveEdit("wiki/a#p0", "wiki", "launch codes and rollout schedule for atlas"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.durable.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	if corrupt, err := n.durable.ScrubPass(); corrupt != 0 || err != nil {
		t.Fatalf("scrub pass: corruptions=%d err=%v", corrupt, err)
	}

	st := c.getHealth("http://node").Storage
	if st == nil {
		t.Fatal("healthz missing storage block")
	}
	if st.ScrubPasses != 1 || st.FramesVerified == 0 || st.QuarantinedFiles != 0 || st.DiskDegraded {
		t.Errorf("storage block %+v: want one pass verifying the sealed segment's frames, and a clean node", *st)
	}
	if _, err := time.ParseDuration(st.LastScrubAge); err != nil {
		t.Errorf("LastScrubAge %q after a pass is not a duration: %v", st.LastScrubAge, err)
	}

	_, metrics := c.do(http.MethodGet, "http://node/v1/metrics", "")
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
