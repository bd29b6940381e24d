package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

var testEpoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// world is one complete engine stack with a fake audit clock at testEpoch.
type world struct {
	clk      *clock.Fake
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
	clk := clock.NewFake(testEpoch)
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLogWithClock(clk))
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
	return &world{clk: clk, tracker: tracker, registry: registry, engine: engine}
}

// export captures comparable state bytes: each database's snapshot (a pure
// function of its logical contents) and its digest (maintained
// incrementally, independent of the codec), then the registry and the
// audit log — an image's sections without its capture time and WAL epoch.
func export(t testing.TB, w *world) []byte {
	t.Helper()
	var out []byte
	for _, db := range []*index.DB{w.tracker.Paragraphs(), w.tracker.Documents()} {
		out = db.Digest().AppendEncode(db.AppendSnapshot(out))
	}
	for _, v := range []interface{}{w.registry.Export(), w.registry.Audit().Entries()} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// testOp is one deterministic mutation applicable to any engine.
type testOp struct {
	name string
	run  func(e *policy.Engine) error
}

var opTexts = []string{
	"the quarterly revenue forecast was revised downwards on friday",
	"launch codes and rollout schedule for the atlas project",
	"meeting notes from the security review of the billing system",
	"customer escalation about data residency in the eu region",
	"draft press release for the upcoming browserflow launch",
	"performance numbers from the winnowing benchmark last night",
}

var opSegs = []segment.ID{"alpha/doc#p0", "alpha/doc#p1", "alpha/doc#p2", "alpha/notes#p0"}

// genOps derives a deterministic mutation stream from rng covering every
// journalled record type: singular/document/batched observations, tag
// suppression, custom tag allocation and labelling, privilege changes and
// decision overrides.
func genOps(rng *rand.Rand, n int) []testOp {
	svcFor := func(i int) string {
		if i%3 == 0 {
			return "bravo"
		}
		return "alpha"
	}
	ops := make([]testOp, 0, n)
	for len(ops) < n {
		switch k := rng.Intn(20); {
		case k < 8: // singular paragraph observation
			seg := opSegs[rng.Intn(len(opSegs))]
			svc := svcFor(rng.Intn(9))
			text := opTexts[rng.Intn(len(opTexts))]
			ops = append(ops, testOp{
				name: fmt.Sprintf("observe %s in %s", seg, svc),
				run: func(e *policy.Engine) error {
					_, err := e.ObserveEdit(seg, svc, text)
					return err
				},
			})
		case k < 10: // whole-document observation
			text := opTexts[rng.Intn(len(opTexts))] + " " + opTexts[rng.Intn(len(opTexts))]
			ops = append(ops, testOp{
				name: "observe document",
				run: func(e *policy.Engine) error {
					_, err := e.ObserveDocumentEdit("alpha/doc", "alpha", text)
					return err
				},
			})
		case k < 14: // batched flush
			count := 2 + rng.Intn(2)
			var segs []segment.ID
			var texts []string
			for i := 0; i < count; i++ {
				segs = append(segs, opSegs[rng.Intn(len(opSegs))])
				texts = append(texts, opTexts[rng.Intn(len(opTexts))])
			}
			ops = append(ops, testOp{
				name: "observe batch",
				run: func(e *policy.Engine) error {
					items := make([]disclosure.BatchObservation, len(segs))
					for i := range segs {
						fp, err := e.Tracker().Fingerprint(texts[i])
						if err != nil {
							return err
						}
						items[i] = disclosure.BatchObservation{
							Seg:         segs[i],
							FP:          fp,
							Granularity: segment.GranularityParagraph,
						}
					}
					_, err := e.ObserveBatchFP("alpha", items)
					return err
				},
			})
		case k < 15: // suppression (valid once the segment carries "ta")
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: fmt.Sprintf("suppress ta on %s", seg),
				run: func(e *policy.Engine) error {
					return e.Suppress("auditor", seg, "ta", "reviewed and cleared")
				},
			})
		case k < 16: // custom tag allocation (duplicate allocations error)
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "allocate " + string(tag),
				run:  func(e *policy.Engine) error { return e.AllocateTag("user", tag) },
			})
		case k < 17: // attach a custom tag
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: "tag segment",
				run:  func(e *policy.Engine) error { return e.AddTagToSegment("user", seg, tag) },
			})
		case k < 18: // privilege grant
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "grant",
				run:  func(e *policy.Engine) error { return e.GrantTag("user", "bravo", tag) },
			})
		case k < 19: // privilege revoke
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "revoke",
				run:  func(e *policy.Engine) error { return e.RevokeTag("user", "bravo", tag) },
			})
		default: // decision override (audit-only record)
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: "override",
				run: func(e *policy.Engine) error {
					e.Override("boss", seg, "bravo", "business need")
					return nil
				},
			})
		}
	}
	return ops
}

func openDurableForTest(t testing.TB, fs wal.FS, pol wal.SyncPolicy, w *world) *Durable {
	t.Helper()
	d, err := OpenDurable(DurableOptions{
		Dir:   "/data",
		FS:    fs,
		Fsync: pol,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// Clean shutdown: recovery must reproduce the exact state, loading the
// final checkpoint with nothing to replay.
func TestDurableCleanShutdownRoundTrip(t *testing.T) {
	fs := faultinject.NewMemFS(1)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	rng := rand.New(rand.NewSource(7))
	for _, op := range genOps(rng, 30) {
		_ = op.run(w.engine) // validation errors are part of the stream
	}
	want := export(t, w)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("state after clean shutdown + recovery differs from original")
	}
	rec := d2.Stats().Recovery
	if rec.CheckpointLoaded == "" {
		t.Error("clean shutdown left no checkpoint")
	}
	if rec.RecordsReplayed != 0 {
		t.Errorf("replayed %d records after clean shutdown, want 0", rec.RecordsReplayed)
	}
}

// Close checkpoints only what no checkpoint covers yet: an idle store — one
// just checkpointed, or one reopened after a clean shutdown and never
// written to — closes without writing an image; anything appended, or
// replayed by recovery, since the newest checkpoint still gets one.
func TestCloseCheckpointsOnlyUncoveredState(t *testing.T) {
	fs := faultinject.NewMemFS(5)
	checkpointFiles := func() []string {
		t.Helper()
		names, err := fs.ReadDirNames("/data")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, name := range names {
			if _, ok := ParseCheckpointName(name); ok {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out
	}
	// closeWrote closes d and returns how many checkpoints that wrote.
	closeWrote := func(d *Durable) int64 {
		t.Helper()
		before, files := d.Stats().Checkpoints, checkpointFiles()
		if err := d.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wrote := d.Stats().Checkpoints - before
		if after := checkpointFiles(); wrote == 0 && !reflect.DeepEqual(after, files) {
			t.Fatalf("close counted no checkpoint but the files went from %v to %v", files, after)
		}
		return wrote
	}
	observe := func(w *world, i int) {
		t.Helper()
		if _, err := w.engine.ObserveEdit(opSegs[i%len(opSegs)], "alpha", opTexts[i%len(opTexts)]); err != nil {
			t.Fatal(err)
		}
	}
	open := func() (*world, *Durable) {
		w := newWorld(t)
		d := openDurableForTest(t, fs, wal.SyncAlways, w)
		w.engine.SetJournal(d)
		return w, d
	}

	// Checkpointed, then closed: the image is already on disk.
	w, d := open()
	observe(w, 0)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := export(t, w)
	if n := closeWrote(d); n != 0 {
		t.Errorf("close right after a checkpoint wrote %d more", n)
	}

	// Reopened from that checkpoint and left alone: still nothing to write,
	// and the state is all there.
	w, d = open()
	if rec := d.Stats().Recovery; rec.CheckpointLoaded == "" || rec.RecordsReplayed != 0 {
		t.Fatalf("recovery after an idle close = %+v, want the checkpoint and no replay", rec)
	}
	if !bytes.Equal(export(t, w), want) {
		t.Error("state after an idle close differs")
	}
	if n := closeWrote(d); n != 0 {
		t.Errorf("close of a store recovered from a checkpoint and never written wrote %d checkpoints", n)
	}

	// Appended since the checkpoint: close covers it.
	w, d = open()
	observe(w, 1)
	if n := closeWrote(d); n != 1 {
		t.Errorf("close after an append wrote %d checkpoints, want 1", n)
	}

	// Crashed with records behind the checkpoint: recovery replays them,
	// and close covers what it replayed though nothing was appended since.
	w, d = open()
	observe(w, 2)
	want = export(t, w)
	fs.Crash()
	w, d = open()
	if rec := d.Stats().Recovery; rec.RecordsReplayed == 0 {
		t.Fatalf("recovery after a crash = %+v, want replayed records", rec)
	}
	if n := closeWrote(d); n != 1 {
		t.Errorf("close after a replaying recovery wrote %d checkpoints, want 1", n)
	}
	w, d = open()
	defer d.Close()
	if rec := d.Stats().Recovery; rec.RecordsReplayed != 0 || !bytes.Equal(export(t, w), want) {
		t.Errorf("recovery after that close = %+v (state equal: %v), want no replay and the same state",
			rec, bytes.Equal(export(t, w), want))
	}
}

// Crash without any checkpoint: everything comes back from the WAL alone.
func TestDurableWALOnlyRecovery(t *testing.T) {
	fs := faultinject.NewMemFS(2)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.engine.Suppress("auditor", "alpha/doc#p0", "ta", "ok"); err != nil {
		t.Fatal(err)
	}
	want := export(t, w)
	fs.Crash() // no Close: kill -9

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("WAL-only recovery lost state")
	}
	rec := d2.Stats().Recovery
	if rec.CheckpointLoaded != "" {
		t.Errorf("unexpected checkpoint %q", rec.CheckpointLoaded)
	}
	if rec.RecordsReplayed == 0 {
		t.Error("no records replayed")
	}
}

// Checkpoints truncate the WAL behind them and recovery replays only the
// suffix.
func TestCheckpointTruncatesAndReplaysSuffix(t *testing.T) {
	fs := faultinject.NewMemFS(3)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	barrier := d.Stats().LastCheckpointSeg
	segs, err := wal.ListSegments(fs, "/data")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s < barrier {
			t.Errorf("segment %d survived checkpoint truncation (barrier %d)", s, barrier)
		}
	}

	if _, err := w.engine.ObserveEdit("alpha/doc#p1", "alpha", opTexts[1]); err != nil {
		t.Fatal(err)
	}
	want := export(t, w)
	fs.Crash()

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("checkpoint + suffix recovery lost state")
	}
	rec := d2.Stats().Recovery
	if rec.CheckpointLoaded == "" {
		t.Error("checkpoint not loaded")
	}
	// Exactly the post-checkpoint records (1 observe) replay.
	if rec.RecordsReplayed != 1 {
		t.Errorf("replayed %d records, want 1", rec.RecordsReplayed)
	}
}

// Recovery must leave the registry sharing label values exactly as the node
// that ingested the segments did: 200 segments of two services hold a
// handful of distinct labels before the checkpoint, and the same handful —
// not 200 — after checkpoint + WAL-suffix recovery. Otherwise the memory
// saved by sharing disappears at the first restart.
func TestRecoveryKeepsLabelSharing(t *testing.T) {
	fs := faultinject.NewMemFS(11)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	observe := func(i int) {
		t.Helper()
		svc := "alpha"
		if i%2 == 1 {
			svc = "bravo"
		}
		seg := segment.ID(fmt.Sprintf("%s/book%d#p%d", svc, i/20, i%20))
		if _, err := w.engine.ObserveEdit(seg, svc, fmt.Sprintf("%s (copy %d)", opTexts[i%len(opTexts)], i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		observe(i)
	}
	if err := w.engine.Suppress("auditor", "alpha/book0#p0", "ta", "cleared"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 150; i < 200; i++ { // replayed from the WAL, not loaded
		observe(i)
	}
	want, distinct := export(t, w), w.registry.DistinctLabels()
	if segs := w.tracker.Paragraphs().Stats().Segments; distinct < 3 || distinct > 8 || segs != 200 {
		t.Fatalf("fixture: %d distinct labels over %d segments, want a handful over 200", distinct, segs)
	}
	fs.Crash()

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Fatal("checkpoint + suffix recovery lost state")
	}
	if rec := d2.Stats().Recovery; rec.CheckpointLoaded == "" || rec.RecordsReplayed != 50 {
		t.Fatalf("recovery loaded %q and replayed %d records, want a checkpoint and 50", rec.CheckpointLoaded, rec.RecordsReplayed)
	}
	if got := w2.registry.DistinctLabels(); got != distinct {
		t.Errorf("recovered registry holds %d distinct labels, the original %d", got, distinct)
	}
}

// A corrupt newest checkpoint falls back to the previous one.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	fs := faultinject.NewMemFS(4)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint over the identical state, then corrupt it.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := export(t, w)
	newest := checkpointName(d.Stats().LastCheckpointSeg)
	if err := fs.FlipByte(filepath.Join("/data", newest), 40, 0x01); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	rec := d2.Stats().Recovery
	if rec.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", rec.CorruptCheckpoints)
	}
	if rec.CheckpointLoaded == "" || rec.CheckpointLoaded == newest {
		t.Errorf("loaded %q, want the older checkpoint", rec.CheckpointLoaded)
	}
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("fallback recovery lost state")
	}
}

// Encrypted checkpoints round-trip with the right key.
func TestEncryptedCheckpointRoundTrip(t *testing.T) {
	fs := faultinject.NewMemFS(5)
	key := DeriveKey("hunter2")
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{Dir: "/data", FS: fs, Key: key}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.SetJournal(d)
	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	want := export(t, w)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := newWorld(t)
	d2, err := OpenDurable(DurableOptions{Dir: "/data", FS: fs, Key: key}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Stats().Recovery.CheckpointLoaded == "" {
		t.Fatal("no checkpoint loaded")
	}
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("encrypted checkpoint recovery lost state")
	}
}

// Audit timestamps survive replay: regenerated entries are amended back to
// their journalled originals even though the recovering process has a
// different clock.
func TestAuditTimestampsRestoredFromWAL(t *testing.T) {
	fs := faultinject.NewMemFS(6)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	// Each entry gets its own time, so a restore that misplaces one shows.
	w.clk.Advance(time.Second)
	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Second)
	if err := w.engine.Suppress("auditor", "alpha/doc#p0", "ta", "cleared"); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Second)
	if err := w.engine.AllocateTag("user", "user:projx"); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Second)
	w.engine.Override("boss", "alpha/doc#p0", "bravo", "deadline")
	want := w.registry.Audit().Entries()
	if len(want) < 3 {
		t.Fatalf("expected >=3 audit entries, have %d", len(want))
	}
	fs.Crash()

	// The recovering process starts its clock much later: without the
	// amend pass every entry would be restamped.
	w2 := newWorld(t)
	w2.clk.Advance(24 * time.Hour)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	got := w2.registry.Audit().Entries()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("audit trail after recovery:\n got %+v\nwant %+v", got, want)
	}
	if d2.Stats().Recovery.AuditRestored == 0 {
		t.Error("no audit timestamps restored")
	}
}

// A journal append failure surfaces as policy.ErrJournal so handlers can
// refuse to acknowledge the request.
func TestJournalFailureSurfaces(t *testing.T) {
	fs := faultinject.NewMemFS(7)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)

	fs.CrashAfterWrites(1)
	_, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0])
	if !errors.Is(err, policy.ErrJournal) {
		t.Errorf("observe during journal failure = %v, want ErrJournal", err)
	}
}

// runCrashScenario drives a random mutation stream into a durable engine,
// crashes at a random write, recovers, and checks the recovered state is
// byte-identical to a reference prefix of the acknowledged operations —
// with fsync=always demanding that NO acknowledged operation is lost.
func runCrashScenario(t *testing.T, seed int64, pol wal.SyncPolicy, withCheckpoints bool) {
	fs := faultinject.NewMemFS(seed)
	fs.SetTornWrites(true)
	fs.SetBitFlipProb(0.3)
	rng := rand.New(rand.NewSource(seed))
	ops := genOps(rng, 35)

	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir:          "/data",
		FS:           fs,
		Fsync:        pol,
		SegmentBytes: 2048, // small segments so streams span several
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatalf("seed %d: OpenDurable: %v", seed, err)
	}
	w.engine.SetJournal(d)

	fs.CrashAfterWrites(1 + rng.Intn(150))

	var acked []testOp
	var crashOp *testOp
	for i := range ops {
		op := ops[i]
		err := op.run(w.engine)
		if fs.Crashed() {
			crashOp = &op
			break
		}
		if err == nil {
			acked = append(acked, op)
		}
		if withCheckpoints && rng.Intn(6) == 0 {
			_ = d.Checkpoint()
			if fs.Crashed() {
				break
			}
		}
	}
	fs.Crash() // power loss + reboot (no-op on schedules if already fired)

	w2 := newWorld(t)
	d2, err := OpenDurable(DurableOptions{Dir: "/data", FS: fs, Fsync: pol}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatalf("seed %d (%v, ckpt=%v): recovery failed: %v", seed, pol, withCheckpoints, err)
	}
	defer d2.Close()
	got := export(t, w2)

	// Reference: acknowledged prefix states, plus (optionally) the
	// operation that was in flight when the crash hit — its record may
	// have reached disk even though it was never acknowledged.
	ref := newWorld(t)
	candidates := [][]byte{export(t, ref)}
	for i, op := range acked {
		if err := op.run(ref.engine); err != nil {
			t.Fatalf("seed %d: acked op %d (%s) fails on reference: %v", seed, i, op.name, err)
		}
		candidates = append(candidates, export(t, ref))
	}
	if crashOp != nil {
		if err := crashOp.run(ref.engine); err == nil {
			candidates = append(candidates, export(t, ref))
		}
	}

	match := -1
	for i := len(candidates) - 1; i >= 0; i-- {
		if bytes.Equal(got, candidates[i]) {
			match = i
			break
		}
	}
	if match < 0 {
		t.Fatalf("seed %d (%v, ckpt=%v): recovered state matches no prefix of %d acked ops",
			seed, pol, withCheckpoints, len(acked))
	}
	if pol == wal.SyncAlways && match < len(acked) {
		t.Errorf("seed %d (ckpt=%v): fsync=always lost acked ops: recovered prefix %d < acked %d",
			seed, withCheckpoints, match, len(acked))
	}
}

// TestCrashRecoveryProperty is the crash/corruption-injection suite: torn
// writes, partial page-cache survival and bit flips across many seeds,
// with and without concurrent checkpoints.
func TestCrashRecoveryProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		for _, withCkpt := range []bool{false, true} {
			name := fmt.Sprintf("fsync=%v/checkpoints=%v", pol, withCkpt)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					runCrashScenario(t, seed, pol, withCkpt)
				}
			})
		}
	}
}

// Replaying the same WAL twice cannot corrupt disclosure state: posted
// unions only grow, and re-observing identical content is a no-op for
// policy decisions (belt-and-braces on top of the epoch barrier).
func TestReplaySemanticIdempotence(t *testing.T) {
	fs := faultinject.NewMemFS(8)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)
	rng := rand.New(rand.NewSource(9))
	for _, op := range genOps(rng, 20) {
		_ = op.run(w.engine)
	}
	fs.Crash()

	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	statsBefore := w2.tracker.Paragraphs().Stats()
	labelBefore := w2.registry.Label("alpha/doc#p0")

	// Force a second replay of everything still in the log.
	if err := d2.replay(0); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	statsAfter := w2.tracker.Paragraphs().Stats()
	if statsAfter.Segments != statsBefore.Segments || statsAfter.DistinctHashes != statsBefore.DistinctHashes {
		t.Errorf("double replay changed index shape: %+v -> %+v", statsBefore, statsAfter)
	}
	labelAfter := w2.registry.Label("alpha/doc#p0")
	if (labelBefore == nil) != (labelAfter == nil) {
		t.Fatalf("double replay changed label existence")
	}
	if labelBefore != nil && !reflect.DeepEqual(labelBefore.Explicit().Sorted(), labelAfter.Explicit().Sorted()) {
		t.Errorf("double replay changed explicit label: %v -> %v",
			labelBefore.Explicit().Sorted(), labelAfter.Explicit().Sorted())
	}
}

func TestOpenDurableValidation(t *testing.T) {
	if _, err := OpenDurable(DurableOptions{}, nil, nil); err == nil {
		t.Error("empty Dir accepted")
	}
}

func TestCheckpointNameRoundTrip(t *testing.T) {
	for _, seg := range []uint64{0, 1, 42, 1 << 40} {
		name := checkpointName(seg)
		got, ok := parseCheckpointName(name)
		if !ok || got != seg {
			t.Errorf("parse(%q) = (%d, %v), want (%d, true)", name, got, ok, seg)
		}
	}
	for _, bad := range []string{"checkpoint-.bf", "wal-0000000000000001.log", "checkpoint-xyz.bf", "checkpoint-1.bf"} {
		if _, ok := parseCheckpointName(bad); ok {
			t.Errorf("parse(%q) accepted", bad)
		}
	}
}
