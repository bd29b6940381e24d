package tagserver

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/node.prom")

// solePartition is a one-partition ring that owns every segment.
type solePartition struct{}

func (solePartition) ID() string                     { return "p0" }
func (solePartition) RingVersion() uint64            { return 1 }
func (solePartition) Owns(segment.ID) bool           { return true }
func (solePartition) KeyRange() (lo, hi uint32)      { return 0, ^uint32(0) }
func (solePartition) Sole() bool                     { return true }
func (solePartition) Resharding() bool               { return false }
func (solePartition) RingBytes() []byte              { return nil }
func (solePartition) SetRing([]byte) (uint64, error) { return 0, fmt.Errorf("fixed ring") }

// wiredNode is a node with everything bftagd can wire, on one obs bundle
// under a fake clock: a durable journal on MemFS, an admission pipeline,
// a replication status source, a partition ring and policy info.
type wiredNode struct {
	clk      *clock.Fake
	obs      *obs.Obs
	server   *Server
	durable  *store.Durable
	pipeline *admission.Pipeline
	wedged   *wedgedEngine

	// Source calls, for the one-snapshot-per-scrape check.
	durabilityCalls, replicationCalls atomic.Int64
}

func newWiredNode(t *testing.T) *wiredNode {
	t.Helper()
	n := &wiredNode{clk: newFakeClock()}
	n.obs = obs.New(n.clk, 0)

	tracker, err := disclosure.NewTracker(disclosure.Params{Fingerprint: fpConfig(), Tpar: 0.3, Tdoc: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLogWithClock(n.clk))
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		t.Fatal(err)
	}
	n.durable, err = store.OpenDurable(store.DurableOptions{
		Dir: "/data", FS: faultinject.NewMemFS(7), Fsync: wal.SyncAlways, Clock: n.clk,
	}, tracker, registry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.durable.Close() })
	engine.SetJournal(n.durable)

	// A partition node's HTTP observes bypass admission, so the script
	// drives the pipeline directly; the wedged engine lets it saturate.
	n.wedged = &wedgedEngine{gate: make(chan struct{})}
	n.pipeline, err = admission.New(n.wedged, admission.Config{
		InteractiveQueue: 1, Workers: 1, Obs: n.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.wedged.release()
		n.pipeline.Close(context.Background())
	})

	n.server, err = NewServer(engine,
		WithObs(n.obs),
		WithAdmission(n.pipeline),
		WithPartition(solePartition{}),
		WithPolicyInfo("deadbeef01", 2),
		WithReplicationStatus(func() HealthReplication {
			n.replicationCalls.Add(1)
			return HealthReplication{Role: "primary", Term: 3, Position: "2,17", AppliedRecords: 12, Bootstraps: 1, Connected: true}
		}),
		WithDurabilitySource(func() (store.DurabilityStats, bool) {
			n.durabilityCalls.Add(1)
			return n.durable.Stats(), true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// do serves one request on the node's mux and returns status and body.
func (n *wiredNode) do(t *testing.T, method, path string, body interface{}) (int, string) {
	t.Helper()
	return serve(t, n.server, method, path, body)
}

func serve(t *testing.T, h http.Handler, method, path string, body interface{}) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.String()
}

func hashRange(lo, n uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)
	}
	return out
}

// script drives a fixed sequence of traffic: observe, batch, check (one
// violation), upload, suppress, reads, a rejected request, an admission
// fold and shed, and one scrub pass and checkpoint.
func (n *wiredNode) script(t *testing.T) {
	t.Helper()
	want := func(wantCode int, path string, body interface{}) {
		t.Helper()
		method := http.MethodPost
		if body == nil {
			method = http.MethodGet
		}
		if code, resp := n.do(t, method, path, body); code != wantCode {
			t.Fatalf("%s: status %d, want %d: %s", path, code, wantCode, resp)
		}
	}
	secret := hashRange(1, 10)
	want(200, "/v1/observe", ObserveRequest{Service: "wiki", Seg: "wiki/plan#p0", Hashes: secret})
	want(200, "/v1/observe/batch", BatchObserveRequest{Service: "docs", Items: []BatchObserveItem{
		{Seg: "docs/a#p0", Hashes: hashRange(100, 5)},
		{Seg: "docs/a#p1", Hashes: hashRange(200, 3)},
	}})
	n.clk.Advance(time.Second)
	code, verdict := n.do(t, http.MethodPost, "/v1/check", CheckRequest{Dest: "docs", Hashes: secret})
	if code != 200 || !strings.Contains(verdict, `"violating":["tw"]`) {
		t.Fatalf("check of wiki text against docs: status %d, verdict %s; want a tw violation", code, verdict)
	}
	want(200, "/v1/check", CheckRequest{Dest: "wiki", Hashes: secret})
	want(200, "/v1/upload", UploadRequest{Seg: "wiki/plan#p0", Dest: "wiki"})
	want(200, "/v1/suppress", SuppressRequest{User: "alice", Seg: "wiki/plan#p0", Tag: "tw", Justification: "published"})
	want(200, "/v1/label?seg=wiki/plan%23p0", nil)
	want(404, "/v1/label?seg=nope%23p0", nil)
	want(400, "/v1/observe", ObserveRequest{Service: "wiki"})
	want(200, "/v1/stats", nil)
	want(200, "/healthz", nil)

	// Admission: the first observe wedges the one worker, the second
	// queues, the third folds into it, the fourth finds the queue full.
	fp := fingerprint.FromHashes(hashRange(300, 4))
	done := make(chan error, 3)
	submit := func(seg segment.ID) {
		go func() {
			_, err := n.pipeline.Observe(context.Background(), "docs", seg, segment.GranularityParagraph, fp)
			done <- err
		}()
	}
	await := func(what string, ok func(admission.Stats) bool) {
		t.Helper()
		awaitAdmission(t, n.pipeline, "admission never reached: "+what, ok)
	}
	submit("adm/a#p0")
	await("worker wedged", func(s admission.Stats) bool { return s.Interactive.Submitted == 1 && s.Interactive.Depth == 0 })
	submit("adm/b#p0")
	await("one queued", func(s admission.Stats) bool { return s.Interactive.Depth == 1 })
	submit("adm/b#p0")
	await("one folded", func(s admission.Stats) bool { return s.Folds == 1 })
	if _, err := n.pipeline.Observe(context.Background(), "docs", "adm/c#p0", segment.GranularityParagraph, fp); err == nil {
		t.Fatal("observe past a full queue was admitted")
	} else if _, shed := admission.AsOverload(err); !shed {
		t.Fatalf("observe past a full queue: %v, want an overload error", err)
	}
	n.wedged.release()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted observe: %v", err)
		}
	}
	await("drained", func(s admission.Stats) bool { return s.Interactive.Executed == 2 })

	if _, err := n.durable.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	if corrupt, err := n.durable.ScrubPass(); corrupt != 0 || err != nil {
		t.Fatalf("scrub pass: corruptions=%d err=%v", corrupt, err)
	}
	if err := n.durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.clk.Advance(2 * time.Second)
}

// TestNodeExpositionGolden pins the whole /v1/metrics body of a fully
// wired node byte for byte, and requires the main port and the
// -debug-listen handler to serve the same bytes from the one registry.
func TestNodeExpositionGolden(t *testing.T) {
	n := newWiredNode(t)
	n.script(t)
	// Debug first: a main-port scrape counts itself once it is written.
	code, debug := serve(t, n.obs.DebugHandler(), http.MethodGet, "/v1/metrics", nil)
	if code != 200 {
		t.Fatalf("debug /v1/metrics: status %d", code)
	}
	code, main := n.do(t, http.MethodGet, "/v1/metrics", nil)
	if code != 200 {
		t.Fatalf("/v1/metrics: status %d", code)
	}
	if main != debug {
		t.Errorf("main-port and debug-port /v1/metrics differ:\n--- main ---\n%s--- debug ---\n%s", main, debug)
	}
	if code, _ := n.do(t, http.MethodGet, "/metrics", nil); code != http.StatusNotFound {
		t.Errorf("/metrics alias: status %d, want 404", code)
	}

	golden := filepath.Join("testdata", "node.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(main), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if main != string(want) {
		t.Errorf("exposition differs from %s (run with -update-golden after an intended change):\n--- got ---\n%s", golden, main)
	}
}

// TestNodeExpositionLint checks the naming rules over the same body: one
// TYPE per family, one prefix, _total exactly on counters, durations and
// sizes never counters, and no quantity under two names.
func TestNodeExpositionLint(t *testing.T) {
	n := newWiredNode(t)
	n.script(t)
	_, body := n.do(t, http.MethodGet, "/v1/metrics", nil)

	types := map[string]string{}
	var families []string
	typeLine := regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+$`)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.Contains(line, "browserflow_") {
			t.Errorf("legacy prefix in %q", line)
		}
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Errorf("family %s has two # TYPE lines", m[1])
			}
			types[m[1]] = m[2]
			families = append(families, m[1])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		fam := m[1]
		if _, ok := types[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suffix); base != fam && types[base] == "histogram" {
					fam = base
				}
			}
		}
		if _, ok := types[fam]; !ok {
			t.Errorf("sample %q has no # TYPE line", line)
		}
	}
	stem := func(f string) string {
		return strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(f, "bf_"), "node_"), "_total")
	}
	stems := map[string]string{}
	for _, f := range families {
		typ := types[f]
		if !strings.HasPrefix(f, "bf_") {
			t.Errorf("family %s is outside the bf_ namespace", f)
		}
		if strings.HasSuffix(f, "_total") != (typ == "counter") {
			t.Errorf("family %s is typed %s: _total and counter must go together", f, typ)
		}
		if (strings.HasSuffix(f, "_seconds") || strings.HasSuffix(f, "_bytes")) && typ != "gauge" && typ != "histogram" {
			t.Errorf("family %s is typed %s: durations and sizes are gauges or histograms", f, typ)
		}
		if other, dup := stems[stem(f)]; dup {
			t.Errorf("families %s and %s export one quantity under two names", other, f)
		}
		stems[stem(f)] = f
	}
	// DESIGN.md §11 carries the series table; keep it the golden's.
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range families {
		row := regexp.MustCompile("(?m)^\\| `" + f + "(\\{[a-z,]+\\})?` \\| " + types[f] + " \\|")
		if !row.Match(design) {
			t.Errorf("DESIGN.md series table has no row for %s typed %s", f, types[f])
		}
	}
	// The quantities the parent exported two or three times.
	for _, once := range []string{
		"bf_wal_segments", "bf_disk_degraded", "bf_quarantined_files",
		"bf_scrub_frames_verified_total", "bf_scrub_corruptions_found_total", "bf_scrub_quarantines_total",
		"bf_checkpoint_age_seconds", "bf_wal_fsync_seconds",
		"bf_admission_queue_depth", "bf_admission_shed_total", "bf_admission_folds_total", "bf_admission_deadline_drops_total",
		"bf_repl_term", "bf_repl_lag_records", "bf_repl_lag_bytes", "bf_repl_applied_records", "bf_repl_bootstraps_total", "bf_repl_connected",
	} {
		if _, ok := types[once]; !ok {
			t.Errorf("family %s missing from the exposition", once)
		}
	}
	for _, gone := range []string{
		"bf_node_repl_lag_bytes", "bf_node_repl_term", "bf_repl_bootstraps", "bf_wal_fsyncs_total",
		"bf_wal_fsync_p50_seconds", "bf_wal_fsync_p99_seconds", "bf_last_checkpoint_age_seconds",
	} {
		if _, ok := types[gone]; ok {
			t.Errorf("family %s duplicates another series", gone)
		}
	}
}

// TestOneSnapshotPerScrape: a scrape takes each handed source's snapshot
// exactly once (ten Durable.Stats() and three replication statuses
// before the series moved onto one collector).
func TestOneSnapshotPerScrape(t *testing.T) {
	n := newWiredNode(t)
	n.script(t)
	for scrape := 1; scrape <= 2; scrape++ {
		d0, r0 := n.durabilityCalls.Load(), n.replicationCalls.Load()
		if code, _ := n.do(t, http.MethodGet, "/v1/metrics", nil); code != 200 {
			t.Fatalf("/v1/metrics: status %d", code)
		}
		if d, r := n.durabilityCalls.Load()-d0, n.replicationCalls.Load()-r0; d != 1 || r != 1 {
			t.Errorf("scrape %d took %d durability and %d replication snapshots, want 1 and 1", scrape, d, r)
		}
	}
}
