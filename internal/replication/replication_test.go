package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

var testEpoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// world is one complete engine stack with a fake audit clock.
type world struct {
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	engine   *policy.Engine
}

func newWorld(t testing.TB) *world {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 3},
		Tpar:        0.3,
		Tdoc:        0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLogWithClock(clock.NewFake(testEpoch)))
	if err := registry.RegisterService("alpha", tdm.NewTagSet("ta"), tdm.NewTagSet("ta")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("bravo", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		t.Fatal(err)
	}
	return &world{tracker: tracker, registry: registry, engine: engine}
}

// export captures comparable state bytes: each database's snapshot (a pure
// function of its logical contents) and its digest (maintained
// incrementally, independent of the codec), then the registry and the
// audit log — an image's sections without its capture time and WAL epoch.
func export(t testing.TB, tracker *disclosure.Tracker, registry *tdm.Registry) []byte {
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

var testTexts = []string{
	"the quarterly revenue forecast was revised downwards on friday",
	"launch codes and rollout schedule for the atlas project",
	"meeting notes from the security review of the billing system",
	"customer escalation about data residency in the eu region",
	"draft press release for the upcoming browserflow launch",
	"performance numbers from the winnowing benchmark last night",
}

var testSegs = []segment.ID{"alpha/doc#p0", "alpha/doc#p1", "alpha/doc#p2", "alpha/notes#p0"}

// mutate applies one deterministic mutation to the engine.
func mutate(t testing.TB, e *policy.Engine, rng *rand.Rand) {
	t.Helper()
	switch k := rng.Intn(10); {
	case k < 5:
		seg := testSegs[rng.Intn(len(testSegs))]
		text := testTexts[rng.Intn(len(testTexts))]
		if _, err := e.ObserveEdit(seg, "alpha", text); err != nil {
			t.Fatalf("observe: %v", err)
		}
	case k < 6:
		text := testTexts[rng.Intn(len(testTexts))] + " " + testTexts[rng.Intn(len(testTexts))]
		if _, err := e.ObserveDocumentEdit("alpha/doc", "alpha", text); err != nil {
			t.Fatalf("observe document: %v", err)
		}
	case k < 7:
		seg := testSegs[rng.Intn(len(testSegs))]
		if err := e.Suppress("auditor", seg, "ta", "reviewed and cleared"); err != nil &&
			!strings.Contains(err.Error(), "not") {
			t.Fatalf("suppress: %v", err)
		}
	case k < 8:
		tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
		_ = e.AllocateTag("user", tag) // duplicate allocations error by design
	case k < 9:
		tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
		_ = e.GrantTag("user", "bravo", tag)
	default:
		seg := testSegs[rng.Intn(len(testSegs))]
		e.Override("boss", seg, "bravo", "business need")
	}
}

// primaryFixture is a running primary: engine + durable store + node +
// replication service behind an httptest server.
type primaryFixture struct {
	w       *world
	durable *store.Durable
	node    *Node
	svc     *Service
	server  *httptest.Server
	dir     string
}

// newPrimaryFixture opens the primary's store as dopts describes, in a
// fresh temp dir.
func newPrimaryFixture(t *testing.T, dopts store.DurableOptions) *primaryFixture {
	t.Helper()
	dir := t.TempDir()
	dopts.Dir = dir
	w := newWorld(t)
	durable, err := store.OpenDurable(dopts, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.SetJournal(durable)
	node, err := NewNode(NodeOptions{Role: RolePrimary, TermFile: filepath.Join(dir, "TERM")})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(node, PrimaryOptions{MaxWait: 2 * time.Second}, t.Logf)
	svc.SetPrimary(NewPrimary(node, durable, PrimaryOptions{MaxWait: 2 * time.Second, Logf: t.Logf}))
	server := httptest.NewServer(svc.Handler())
	t.Cleanup(server.Close)
	t.Cleanup(func() { durable.Close() })
	return &primaryFixture{w: w, durable: durable, node: node, svc: svc, server: server, dir: dir}
}

// replicaFixture is a running replica with its own engine stack.
type replicaFixture struct {
	w       *world
	node    *Node
	replica *Replica
	dir     string
	client  *http.Client
}

func newReplicaFixture(t *testing.T, primaryURL, dir string, client *http.Client) *replicaFixture {
	t.Helper()
	return newReplicaFixtureOpts(t, primaryURL, client, store.DurableOptions{Dir: dir})
}

// newReplicaFixtureOpts opens the replica over the given durable
// directory description (an empty Dir means a fresh temp dir).
func newReplicaFixtureOpts(t *testing.T, primaryURL string, client *http.Client, dopts store.DurableOptions) *replicaFixture {
	t.Helper()
	return newReplicaFixturePoll(t, primaryURL, client, dopts, 250*time.Millisecond)
}

// newReplicaFixturePoll is newReplicaFixtureOpts with the long-poll budget
// stated (a caught-up standby follows a primary's rotation when its poll
// expires, so tests that wait on rollovers keep it short).
func newReplicaFixturePoll(t *testing.T, primaryURL string, client *http.Client, dopts store.DurableOptions, pollWait time.Duration) *replicaFixture {
	t.Helper()
	if dopts.Dir == "" {
		dopts.Dir = t.TempDir()
	}
	dir := dopts.Dir
	dopts.Logf = t.Logf
	w := newWorld(t)
	node, err := NewNode(NodeOptions{
		Role:     RoleReplica,
		Primary:  primaryURL,
		TermFile: filepath.Join(dir, "TERM"),
		FS:       dopts.FS,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(node, w.engine, ReplicaOptions{
		Durable:      dopts,
		HTTPClient:   client,
		PollWait:     pollWait,
		RetryBackoff: 20 * time.Millisecond,
		Obs:          obs.New(dopts.Clock, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &replicaFixture{w: w, node: node, replica: rep, dir: dir, client: client}
	t.Cleanup(r.shutdown)
	return r
}

// shutdown stops streaming and closes the node's durable store, as a
// daemon's exit does (both are idempotent).
func (r *replicaFixture) shutdown() {
	r.replica.Stop()
	r.replica.Durable().Close() //nolint:errcheck
}

// startBootstrapped starts the replica and waits for its initial
// snapshot bootstrap so subsequent mutations arrive via the stream.
func startBootstrapped(t *testing.T, r *replicaFixture) {
	t.Helper()
	r.replica.Start()
	waitFor(t, 10*time.Second, "initial bootstrap", func() bool {
		return r.replica.Status().Bootstraps >= 1
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the replica has applied everything the
// primary's WAL holds.
func caughtUp(p *primaryFixture, r *replicaFixture) bool {
	st := r.replica.Status()
	return st.Connected && st.LagRecords == 0 && st.Position == p.durable.WAL().End().String()
}

// assertStateMatch compares full engine state between primary and replica.
func assertStateMatch(t *testing.T, p *primaryFixture, r *replicaFixture) {
	t.Helper()
	want := export(t, p.w.tracker, p.w.registry)
	got := export(t, r.w.tracker, r.w.registry)
	if !bytes.Equal(want, got) {
		t.Fatalf("replica state diverged from primary\nprimary: %s\nreplica: %s", want, got)
	}
}

// assertBytePrefix verifies every mirrored segment is byte-identical to
// a prefix of the primary's same-named segment file.
func assertBytePrefix(t *testing.T, primaryDir, replicaDir string) {
	t.Helper()
	names, err := os.ReadDir(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, de := range names {
		if _, ok := wal.ParseSegmentName(de.Name()); !ok {
			continue
		}
		rep, err := os.ReadFile(filepath.Join(replicaDir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prim, err := os.ReadFile(filepath.Join(primaryDir, de.Name()))
		if err != nil {
			t.Fatalf("segment %s exists on replica but not primary: %v", de.Name(), err)
		}
		if len(rep) > len(prim) || !bytes.Equal(rep, prim[:len(rep)]) {
			t.Fatalf("segment %s: replica bytes are not a prefix of the primary's (%d vs %d bytes)",
				de.Name(), len(rep), len(prim))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no mirrored segments to compare")
	}
}

func TestReplicaFollowsPrimary(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "replica catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	assertBytePrefix(t, p.dir, r.dir)

	st := r.replica.Status()
	if st.Role != "replica" {
		t.Fatalf("role = %s, want replica", st.Role)
	}
	if st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1", st.Bootstraps)
	}
	if st.AppliedRecords == 0 {
		t.Fatal("replica applied no records")
	}
}

func TestReplicaRestartResumesFromLocalMirror(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "first catch-up", func() bool { return caughtUp(p, r) })
	r.shutdown()

	// More traffic while the replica is down.
	for i := 0; i < 100; i++ {
		mutate(t, p.w.engine, rng)
	}

	// Restart from the same directory: local recovery must resume the
	// stream without re-bootstrapping.
	r2 := newReplicaFixture(t, p.server.URL, r.dir, nil)
	r2.replica.Start()
	waitFor(t, 10*time.Second, "resume catch-up", func() bool { return caughtUp(p, r2) })
	assertStateMatch(t, p, r2)
	assertBytePrefix(t, p.dir, r2.dir)
	if b := r2.replica.Status().Bootstraps; b != 0 {
		t.Fatalf("bootstraps after restart = %d, want 0 (must resume from mirror)", b)
	}
}

// TestPartitionAndHeal: a partitioned replica retries exactly RetryBackoff
// after each failed round, on its clock, and catches up once healed.
func TestPartitionAndHeal(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	inj := faultinject.New(nil, 1)
	clk := clock.NewFake(testEpoch)
	r := newReplicaFixtureOpts(t, p.server.URL, &http.Client{Transport: inj}, store.DurableOptions{Clock: clk})
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "pre-partition catch-up", func() bool { return caughtUp(p, r) })

	inj.Partition()
	for i := 0; i < 80; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "disconnect noticed", func() bool {
		return !r.replica.Status().Connected
	})
	clk.WaitArmed(1) // the back-off: the failed round's timeout is gone
	inj.Heal()
	rounds := inj.Attempts("/v1/repl/stream")
	clk.Advance(20*time.Millisecond - 1)
	if n := inj.Attempts("/v1/repl/stream"); n != rounds {
		t.Fatalf("%d stream rounds inside the back-off", n-rounds)
	}
	clk.Advance(1)
	waitFor(t, 10*time.Second, "post-heal catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	assertBytePrefix(t, p.dir, r.dir)
	if b := r.replica.Status().Bootstraps; b != 1 {
		t.Fatalf("bootstraps = %d, want 1 (partition must not force re-bootstrap)", b)
	}
}

func TestChaosTransportNeverDiverges(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	inj := faultinject.New(nil, 42)
	// A middlebox that randomly truncates stream bodies and injects 503s.
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/repl/stream", Kind: faultinject.KindTruncateBody, P: 0.3})
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/repl/stream", Kind: faultinject.KindStatus, P: 0.2})
	inj.AddRule(faultinject.Rule{PathPrefix: "/v1/repl/stream", Kind: faultinject.KindResetAfterSend, P: 0.2})
	client := &http.Client{Transport: inj}
	r := newReplicaFixture(t, p.server.URL, "", client)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 30*time.Second, "chaos catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	assertBytePrefix(t, p.dir, r.dir)
}

func TestStreamPositionGoneTriggersRebootstrap(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 60; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	r.shutdown()

	// Advance the primary past two checkpoints so the replica's position
	// is truncated out of the log.
	for round := 0; round < 2; round++ {
		for i := 0; i < 60; i++ {
			mutate(t, p.w.engine, rng)
		}
		if err := p.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	r2 := newReplicaFixture(t, p.server.URL, r.dir, nil)
	r2.replica.Start()
	waitFor(t, 10*time.Second, "re-bootstrap catch-up", func() bool { return caughtUp(p, r2) })
	assertStateMatch(t, p, r2)
	if b := r2.replica.Status().Bootstraps; b != 1 {
		t.Fatalf("bootstraps = %d, want exactly 1 re-bootstrap", b)
	}
}

// TestRebootstrapDropsCachedDecisions is the replica side of the stale-
// decision hole: a live replica whose applier cached "S holds text F" is
// cut off, re-bootstraps in place onto a snapshot in which S holds G, and
// then streams a record putting F back. With the cache kept across the
// restore that record is answered from it and never reaches the index, so
// the replica stands at the primary's WAL position with S still holding G
// — and would serve that state once promoted.
func TestRebootstrapDropsCachedDecisions(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	inj := faultinject.New(nil, 1)
	r := newReplicaFixture(t, p.server.URL, "", &http.Client{Transport: inj})
	startBootstrapped(t, r)
	observe := func(text string) {
		t.Helper()
		if _, err := p.w.engine.ObserveEdit("alpha/doc#p0", "alpha", text); err != nil {
			t.Fatal(err)
		}
	}

	observe(testTexts[0])
	waitFor(t, 10*time.Second, "first catch-up", func() bool { return caughtUp(p, r) })

	// Cut the replica off and move the primary past two checkpoints, so
	// the replica's position is truncated out of the log.
	inj.Partition()
	waitFor(t, 10*time.Second, "disconnect noticed", func() bool { return !r.replica.Status().Connected })
	observe(testTexts[1])
	for round := 0; round < 2; round++ {
		if err := p.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	inj.Heal()
	waitFor(t, 10*time.Second, "re-bootstrap", func() bool { return r.replica.Status().Bootstraps >= 2 })

	observe(testTexts[0])
	waitFor(t, 10*time.Second, "post-bootstrap catch-up", func() bool { return caughtUp(p, r) })
	if got, want := r.w.tracker.Digest(), p.w.tracker.Digest(); got != want {
		t.Fatalf("replica digest %+v, primary %+v", got, want)
	}
	assertStateMatch(t, p, r)
	if st := r.replica.Status(); st.Bootstraps != 2 || st.Divergences != 0 {
		t.Fatalf("bootstraps = %d, divergences = %d, want 2 and 0", st.Bootstraps, st.Divergences)
	}
}

func TestPromotionFencesOldPrimary(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 120; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "catch-up before promotion", func() bool { return caughtUp(p, r) })

	// Promote the replica.
	durable, term, err := r.replica.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if term != 1 {
		t.Fatalf("promoted term = %d, want 1", term)
	}
	if r.node.Role() != RolePrimary {
		t.Fatalf("promoted role = %s", r.node.Role())
	}

	// The new primary accepts writes through its own durable journal.
	if err := r.w.engine.AllocateTag("user", "user:postpromo"); err != nil {
		t.Fatalf("write on new primary: %v", err)
	}

	// State right after promotion still matches what the old primary had.
	// (The new write exists only on the new primary, so compare exports
	// captured before it... instead verify via a fresh recovery below.)

	// Fence the old primary explicitly (what bfctl promote does).
	resp, err := http.Post(p.server.URL+"/v1/repl/fence", "application/json",
		strings.NewReader(fmt.Sprintf(`{"term": %d, "primary": "http://new-primary"}`, term)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.node.Role() != RoleFenced {
		t.Fatalf("old primary role = %s, want fenced", p.node.Role())
	}
	if p.node.Term() != term {
		t.Fatalf("old primary term = %d, want %d", p.node.Term(), term)
	}

	// A guarded old primary now refuses writes with 421 + the new
	// primary's address.
	guarded := httptest.NewServer(Guard(p.node, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), t.Logf))
	defer guarded.Close()
	wresp, err := http.Post(guarded.URL+"/v1/observe", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write on fenced primary: status %d, want 421", wresp.StatusCode)
	}
	if got := wresp.Header.Get(HeaderPrimary); got != "http://new-primary" {
		t.Fatalf("421 primary header = %q", got)
	}
	// Reads still pass the guard.
	rresp, err := http.Get(guarded.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("read on fenced primary: status %d, want 200", rresp.StatusCode)
	}
	// Scatter contributions are primary-only even though they are
	// read-only: a fenced ex-primary serving them could hide a
	// just-observed source and flip a block into an allow, so the guard
	// 421s the query and the router rediscovers the real primary.
	qresp, err := http.Post(guarded.URL+"/v1/part/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("part query on fenced primary: status %d, want 421", qresp.StatusCode)
	}

	// The new primary's durable state survives a reopen: recover a fresh
	// world from its directory and compare.
	durable.Close()
	w2 := newWorld(t)
	d2, err := store.OpenDurable(store.DurableOptions{Dir: r.dir, Fsync: wal.SyncNone}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want := export(t, r.w.tracker, r.w.registry)
	got := export(t, w2.tracker, w2.registry)
	if !bytes.Equal(want, got) {
		t.Fatal("new primary state does not survive recovery from its mirror+journal")
	}
}

// A promoted node opens the DurableOptions it was started with: the
// disk-fault policy, the scrubber and the fsync policy all survive the
// role change (they used to be dropped, because the replica carried its
// own subset of the options under Promote* names).
func TestPromotionKeepsStoragePolicy(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixtureOpts(t, p.server.URL, nil, store.DurableOptions{
		FailOpen:      true,
		ScrubEvery:    20 * time.Millisecond,
		OnDiskFull:    store.OnDiskFullFail,
		Fsync:         wal.SyncInterval,
		FsyncInterval: 50 * time.Millisecond,
	})
	startBootstrapped(t, r)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "catch-up before promotion", func() bool { return caughtUp(p, r) })

	durable, _, err := r.replica.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()

	if !durable.Stats().Disk.FailOpen {
		t.Error("promoted node lost FailOpen: it would fail closed on a disk fault")
	}
	// SyncInterval, not the SyncAlways default (one fsync per append) and
	// not SyncNone (never): a burst of appends shares group commits, and
	// the first one lands within a few intervals.
	for i := 0; i < 20; i++ {
		if err := r.w.engine.AllocateTag("user", tdm.Tag(fmt.Sprintf("user:postpromo%d", i))); err != nil {
			t.Fatalf("write on promoted node: %v", err)
		}
	}
	if st := durable.Stats().WAL; st.RecordsAppended < 20 || st.Fsyncs >= st.RecordsAppended {
		t.Errorf("%d fsyncs for %d appends: promoted node is not group-committing", st.Fsyncs, st.RecordsAppended)
	}
	waitFor(t, time.Second, "group commit and first scrub pass on the promoted node", func() bool {
		st := durable.Stats()
		return st.WAL.Fsyncs >= 1 && st.Scrub.Passes >= 1
	})
}

func TestInPlacePromotionViaServiceEndpoint(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })

	// Mount the replica's replication service and promote via HTTP.
	rsvc := NewService(r.node, PrimaryOptions{MaxWait: time.Second, Logf: t.Logf}, t.Logf)
	rsvc.SetReplica(r.replica)
	rserver := httptest.NewServer(rsvc.Handler())
	defer rserver.Close()

	resp, err := http.Post(rserver.URL+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %v", resp.StatusCode, body)
	}
	if body["role"] != "primary" || body["promoted"] != true {
		t.Fatalf("promote response: %v", body)
	}
	promoted := r.replica.Durable() // the node's one store, now the primary's journal

	// The promoted node now serves the replication stream itself: a new
	// replica can chain off it.
	r2 := newReplicaFixture(t, rserver.URL, "", nil)
	startBootstrapped(t, r2)
	if err := r.w.engine.AllocateTag("user", "user:chained"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "chained replica catch-up", func() bool {
		st := r2.replica.Status()
		return st.Connected && st.LagRecords == 0 && st.Position == promoted.WAL().End().String()
	})
	want := export(t, r.w.tracker, r.w.registry)
	got := export(t, r2.w.tracker, r2.w.registry)
	if !bytes.Equal(want, got) {
		t.Fatal("chained replica state diverged from promoted primary")
	}
}
