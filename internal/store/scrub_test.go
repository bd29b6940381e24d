package store

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// seedSealedSegments journals ops and rotates so sealed segments with
// real records exist for the scrubber to walk.
func seedSealedSegments(t *testing.T, d *Durable, w *world, rounds, opsPerRound int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < rounds; r++ {
		for _, op := range genOps(rng, opsPerRound) {
			_ = op.run(w.engine)
		}
		if _, err := d.WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}
}

// The acceptance chaos path: a sealed segment decays at rest, the
// scrubber quarantines it and force-checkpoints the live state, and a
// kill -9 right after loses nothing that was acked.
func TestScrubQuarantinesDecayedSegmentNoAckedLoss(t *testing.T) {
	fs := faultinject.NewMemFS(21)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)
	seedSealedSegments(t, d, w, 3, 8)
	want := export(t, w)

	sealed := d.WAL().SealedSegments()
	if len(sealed) < 2 {
		t.Fatalf("only %d sealed segments", len(sealed))
	}
	victim := sealed[0]
	if err := fs.FlipByte(filepath.Join("/data", wal.SegmentName(victim)), wal.HeaderSize+5, 0x20); err != nil {
		t.Fatal(err)
	}

	found, err := d.ScrubPass()
	if err != nil {
		t.Fatalf("scrub pass: %v", err)
	}
	if found != 1 {
		t.Fatalf("scrub found %d corruptions, want 1", found)
	}
	st := d.Stats()
	if st.Scrub.CorruptionsFound != 1 || st.Scrub.Quarantines != 1 {
		t.Fatalf("scrub stats = %+v, want 1 corruption + 1 quarantine", st.Scrub)
	}
	if st.Scrub.QuarantinedFiles != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", st.Scrub.QuarantinedFiles)
	}
	if st.WAL.QuarantinedSegments != 1 {
		t.Fatalf("WAL.QuarantinedSegments = %d, want 1", st.WAL.QuarantinedSegments)
	}
	if !strings.Contains(st.Scrub.LastCorruption, wal.SegmentName(victim)) {
		t.Fatalf("LastCorruption %q does not name segment", st.Scrub.LastCorruption)
	}
	// A clean follow-up pass finds nothing and counts clean work.
	if found, err := d.ScrubPass(); err != nil || found != 0 {
		t.Fatalf("second pass found %d, err %v", found, err)
	}
	if st := d.Stats(); st.Scrub.Passes != 2 || st.Scrub.FramesVerified == 0 {
		t.Fatalf("after clean pass: %+v", st.Scrub)
	}

	// kill -9 right after the scrub: the forced checkpoint already holds
	// everything acked, quarantine included.
	fs.Crash()
	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("acked state lost across scrub-quarantine + crash")
	}
}

// A checkpoint image that decays at rest is quarantined and replaced.
func TestScrubQuarantinesDecayedCheckpoint(t *testing.T) {
	fs := faultinject.NewMemFS(22)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	defer d.Close()
	w.engine.SetJournal(d)

	rng := rand.New(rand.NewSource(12))
	for _, op := range genOps(rng, 10) {
		_ = op.run(w.engine)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older := checkpointName(d.Stats().LastCheckpointSeg)
	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("/data", older)
	if _, err := VerifyCheckpointFile(fs, path, nil); err != nil {
		t.Fatalf("intact checkpoint failed verification: %v", err)
	}
	if err := fs.FlipByte(path, 64, 0x08); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCheckpointFile(fs, path, nil); err == nil {
		t.Fatal("decayed checkpoint verified clean")
	}

	found, err := d.ScrubPass()
	if err != nil {
		t.Fatalf("scrub pass: %v", err)
	}
	if found != 1 {
		t.Fatalf("found %d corruptions, want 1", found)
	}
	if got := wal.CountQuarantined(fs, "/data"); got != 1 {
		t.Fatalf("CountQuarantined = %d, want 1", got)
	}
	// The forced checkpoint replaced the lost spare: recovery still has
	// a clean image to load.
	if st := d.Stats(); st.Checkpoints < 3 {
		t.Fatalf("no replacement checkpoint taken (checkpoints=%d)", st.Checkpoints)
	}
}

// kill -9 in the window between quarantine and the healing checkpoint:
// the node must still restart (gap reported, not fatal) — the records in
// the decayed segment are the only loss, which DESIGN.md documents.
func TestKillDuringQuarantineWindowRestarts(t *testing.T) {
	fs := faultinject.NewMemFS(23)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)
	seedSealedSegments(t, d, w, 3, 6)

	sealed := d.WAL().SealedSegments()
	if err := d.WAL().Quarantine(sealed[1]); err != nil {
		t.Fatal(err)
	}
	fs.Crash() // power loss before the healing checkpoint ran

	w2 := newWorld(t)
	d2, err := OpenDurable(DurableOptions{Dir: "/data", FS: fs, Fsync: wal.SyncAlways}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatalf("restart over quarantine gap refused: %v", err)
	}
	defer d2.Close()
	if gaps := d2.Stats().WAL.RecoveryGaps; gaps == 0 {
		t.Error("restart did not report the quarantine gap")
	}
}

// At-rest decay found at startup (not by the scrubber): recovery
// quarantines the segment itself and starts, instead of refusing.
func TestRecoveryQuarantinesMidLogDecay(t *testing.T) {
	fs := faultinject.NewMemFS(24)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	w.engine.SetJournal(d)
	seedSealedSegments(t, d, w, 3, 6)
	sealed := d.WAL().SealedSegments()
	fs.Crash() // stop the node first, then decay a sealed segment at rest

	if err := fs.FlipByte(filepath.Join("/data", wal.SegmentName(sealed[0])), wal.HeaderSize+7, 0x10); err != nil {
		t.Fatal(err)
	}
	w2 := newWorld(t)
	d2, err := OpenDurable(DurableOptions{Dir: "/data", FS: fs, Fsync: wal.SyncAlways}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatalf("recovery refused to start over mid-log decay: %v", err)
	}
	defer d2.Close()
	st := d2.Stats()
	if st.WAL.QuarantinedSegments != 1 {
		t.Errorf("QuarantinedSegments = %d, want 1", st.WAL.QuarantinedSegments)
	}
	if st.WAL.RecoveryGaps == 0 {
		t.Error("recovery gap not reported")
	}
}

// Fail-closed: a dying disk turns appends into typed DegradedErrors; no
// record is acked that the journal cannot hold; healing the medium and
// probing resumes service with nothing acked lost.
func TestDiskFaultFailClosed(t *testing.T) {
	fs := faultinject.NewMemFS(25)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		ProbeEvery: time.Hour, // manual ProbeRecover in this test
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Suppress("auditor", "alpha/doc#p0", "ta", "ok"); err != nil {
		t.Fatal(err)
	}
	fs.FailWritesAfter(0)

	err = d.Suppress("auditor", "alpha/doc#p1", "ta", "ok")
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("append on dead disk returned %v, want *DegradedError", err)
	}
	if de.Cause != "eio" || de.RetryAfter != time.Hour {
		t.Fatalf("DegradedError = %+v", de)
	}
	// Sustained EIO: every further append drains to the same error, no
	// retry storm against the medium.
	for i := 0; i < 5; i++ {
		if err := d.Suppress("auditor", "alpha/doc#p1", "ta", "ok"); !errors.As(err, &de) {
			t.Fatalf("sustained-EIO append %d returned %v", i, err)
		}
	}
	st := d.Stats()
	if !st.Disk.Degraded || st.Disk.Cause != "eio" || st.Disk.FailOpen {
		t.Fatalf("Disk = %+v", st.Disk)
	}
	if st.Disk.DroppedRecords != 0 {
		t.Fatalf("fail-closed dropped %d records", st.Disk.DroppedRecords)
	}

	// While the disk is down the probe fails and the node stays degraded.
	if ok, _ := d.ProbeRecover(); ok {
		t.Fatal("probe succeeded on a dead disk")
	}

	fs.ClearWriteError()
	ok, err := d.ProbeRecover()
	if !ok || err != nil {
		t.Fatalf("probe after heal: ok=%v err=%v", ok, err)
	}
	st = d.Stats()
	if st.Disk.Degraded || st.Disk.Recoveries != 1 {
		t.Fatalf("post-recovery Disk = %+v", st.Disk)
	}
	if err := d.Suppress("auditor", "alpha/doc#p2", "ta", "ok"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// Fail-open: verdicts keep flowing while the disk is down — appends ack
// without journalling and are counted; recovery's forced checkpoint
// folds the dropped mutations back into durable state, so even a crash
// right after loses nothing.
func TestDiskFaultFailOpen(t *testing.T) {
	fs := faultinject.NewMemFS(26)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		FailOpen:   true,
		ProbeEvery: time.Hour,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.SetJournal(d)

	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	fs.FailWritesAfter(0)

	// The disk is dead but the node keeps serving and acking.
	if _, err := w.engine.ObserveEdit("alpha/doc#p1", "alpha", opTexts[1]); err != nil {
		t.Fatalf("fail-open observe errored: %v", err)
	}
	if err := w.engine.Suppress("auditor", "alpha/doc#p0", "ta", "ok"); err != nil {
		t.Fatalf("fail-open suppress errored: %v", err)
	}
	st := d.Stats()
	if !st.Disk.Degraded || !st.Disk.FailOpen {
		t.Fatalf("Disk = %+v", st.Disk)
	}
	if st.Disk.DroppedRecords == 0 {
		t.Fatal("no dropped records counted")
	}
	want := export(t, w)

	fs.ClearWriteError()
	if ok, err := d.ProbeRecover(); !ok || err != nil {
		t.Fatalf("probe after heal: ok=%v err=%v", ok, err)
	}
	// The journal gap is healed: crash now and everything — including the
	// never-journalled fail-open mutations — comes back.
	fs.Crash()
	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("fail-open window lost across recovery checkpoint + crash")
	}
}

// A degraded fail-open store acks mutations it does not journal, so the
// record count says nothing about whether the last checkpoint covers the
// state: Close must still try one, and when the disk has healed by then the
// fail-open window survives the shutdown.
func TestCloseWhileDegradedStillCheckpoints(t *testing.T) {
	fs := faultinject.NewMemFS(27)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		FailOpen:   true,
		ProbeEvery: time.Hour,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.SetJournal(d)
	if _, err := w.engine.ObserveEdit("alpha/doc#p0", "alpha", opTexts[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.FailWritesAfter(0)
	if _, err := w.engine.ObserveEdit("alpha/doc#p1", "alpha", opTexts[1]); err != nil {
		t.Fatalf("fail-open observe errored: %v", err)
	}
	if st := d.Stats(); !st.Disk.Degraded || st.Disk.DroppedRecords == 0 {
		t.Fatalf("Disk = %+v, want degraded with dropped records", st.Disk)
	}
	want := export(t, w)
	fs.ClearWriteError()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w2 := newWorld(t)
	d2 := openDurableForTest(t, fs, wal.SyncAlways, w2)
	defer d2.Close()
	if got := export(t, w2); !bytes.Equal(got, want) {
		t.Error("mutations acked while degraded were lost by a clean shutdown on a healed disk")
	}
}

// ENOSPC with the default prune policy: spare checkpoints and obsolete
// segments are freed and the append retried before the node degrades.
func TestENOSPCPruneSelfRecovery(t *testing.T) {
	fs := faultinject.NewMemFS(27)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		ProbeEvery: time.Hour,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w.engine.SetJournal(d)

	rng := rand.New(rand.NewSource(13))
	for _, op := range genOps(rng, 10) {
		_ = op.run(w.engine)
	}
	// Two checkpoints leave a prunable spare.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Leave less headroom than one record frame: the next append hits
	// ENOSPC, frees the spare checkpoint (much larger than a frame) and
	// succeeds on retry.
	fs.SetCapacity(fs.Used() + 10)
	if err := d.Suppress("auditor", "alpha/doc#p0", "ta", "ok"); err != nil {
		t.Fatalf("append did not self-recover from ENOSPC: %v", err)
	}
	if st := d.Stats(); st.Disk.Degraded {
		t.Fatalf("node degraded despite successful prune: %+v", st.Disk)
	}
}

// ENOSPC with -on-disk-full=fail: no pruning, immediate degradation.
func TestENOSPCFailPolicy(t *testing.T) {
	fs := faultinject.NewMemFS(28)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		OnDiskFull: OnDiskFullFail,
		ProbeEvery: time.Hour,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w.engine.SetJournal(d)

	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.SetCapacity(fs.Used() + 10)

	err = d.Suppress("auditor", "alpha/doc#p0", "ta", "ok")
	var de *DegradedError
	if !errors.As(err, &de) || de.Cause != "enospc" {
		t.Fatalf("append = %v, want DegradedError(enospc)", err)
	}
	// Freeing space heals it through the normal probe path.
	fs.SetCapacity(0)
	if ok, err := d.ProbeRecover(); !ok || err != nil {
		t.Fatalf("probe after space freed: ok=%v err=%v", ok, err)
	}
}

// A read-only remount degrades with cause erofs.
func TestReadOnlyRemountDegrades(t *testing.T) {
	fs := faultinject.NewMemFS(29)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways,
		ProbeEvery: time.Hour,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	fs.SetReadOnly(true)
	err = d.Suppress("auditor", "alpha/doc#p0", "ta", "ok")
	var de *DegradedError
	if !errors.As(err, &de) || de.Cause != "erofs" {
		t.Fatalf("append = %v, want DegradedError(erofs)", err)
	}
	fs.SetReadOnly(false)
	if ok, err := d.ProbeRecover(); !ok || err != nil {
		t.Fatalf("probe after remount rw: ok=%v err=%v", ok, err)
	}
}

// The background scrub loop runs a pass every ScrubEvery, the first one
// ScrubEvery after the store opened.
func TestBackgroundScrubLoop(t *testing.T) {
	fs := faultinject.NewMemFS(30)
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: fs, Fsync: wal.SyncAlways, Clock: w.clk,
		ScrubEvery: 5 * time.Millisecond,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w.engine.SetJournal(d)
	seedSealedSegments(t, d, w, 2, 4)

	for i, step := range []time.Duration{5*time.Millisecond - 1, 1, 5 * time.Millisecond} {
		w.clk.Advance(step)
		w.clk.WaitArmed(1) // the loop is waiting for its next pass
		if got := d.Stats().Scrub.Passes; got != int64(i) {
			t.Fatalf("after %v: %d passes, want %d", w.clk.Since(testEpoch), got, i)
		}
	}
}

// Close ends a background pass that waits on its rate bound instead of
// waiting it out, and the cut-short pass is not counted.
func TestCloseEndsThrottledScrubPass(t *testing.T) {
	w := newWorld(t)
	d, err := OpenDurable(DurableOptions{
		Dir: "/data", FS: faultinject.NewMemFS(31), Fsync: wal.SyncAlways, Clock: w.clk,
		ScrubEvery: time.Minute, ScrubRateMB: 1,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.SetJournal(d)
	seedSealedSegments(t, d, w, 2, 64)

	w.clk.Advance(time.Minute)
	// The pass waits on the limiter; the clock never moves to end that wait.
	w.clk.WaitArmed(1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats().Scrub; st.Passes != 0 || st.SegmentsVerified == 0 {
		t.Errorf("scrub stats %+v: want a pass cut short after verifying a segment, and not counted", st)
	}
}
