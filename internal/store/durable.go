// durable.go wires the write-ahead log (internal/wal), the checkpointer
// and crash recovery into one durability subsystem for the shared tag
// service. The policy engine journals every state mutation through the
// policy.Journal interface implemented here; a background checkpointer
// periodically captures a state image off the request path and truncates
// the WAL behind it; recovery loads the newest valid checkpoint and replays
// the remaining records.
//
// # Checkpoint protocol
//
// Every journalled mutation runs inside Begin's read lock, covering both
// the in-memory mutation and its WAL append. A checkpoint takes the write
// lock, rotates the WAL to a fresh segment S (the epoch barrier) and
// captures the snapshot while holding it, so:
//
//   - every mutation journalled in segments < S is in the snapshot, and
//   - every mutation journalled in segments >= S is NOT in the snapshot.
//
// The snapshot is then written durably (fsync file + parent directory) as
// checkpoint-S outside the lock, and only afterwards are segments < S and
// older checkpoints deleted. Recovery therefore replays exactly the
// mutations the newest durable checkpoint is missing; observe replay is
// additionally idempotent (first-seen postings are never refreshed), so
// even a re-replayed record cannot corrupt disclosure state.
//
// # Follower role
//
// A standby is this same subsystem opened with OpenFollower; follower.go
// states the three places where following changes it.
package store

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// DefaultKeepCheckpoints is how many durable checkpoints Checkpoint
// retains (the newest plus spares for corruption fallback).
const DefaultKeepCheckpoints = 2

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir holds WAL segments and checkpoint files (created if missing).
	Dir string

	// FS is the filesystem to write through; nil means the real one.
	FS wal.FS

	// Clock stamps and paces everything the store and its WAL time; nil
	// means the real one.
	Clock clock.Clock

	// Key encrypts checkpoint snapshots at rest (nil = plaintext with an
	// integrity header).
	Key []byte

	// Fsync is the WAL fsync policy (zero = wal.SyncAlways).
	Fsync wal.SyncPolicy

	// FsyncInterval is the group-commit cadence for wal.SyncInterval.
	FsyncInterval time.Duration

	// SegmentBytes is the WAL rotation threshold.
	SegmentBytes int64

	// CheckpointEvery is the background checkpoint cadence; 0 disables
	// the background checkpointer (Checkpoint may still be called
	// explicitly, e.g. at shutdown).
	CheckpointEvery time.Duration

	// KeepCheckpoints is how many checkpoint files to retain (default
	// DefaultKeepCheckpoints).
	KeepCheckpoints int

	// ScrubEvery is the at-rest scrub cadence: every interval the
	// scrubber re-verifies the CRCs of all sealed WAL segments and
	// checkpoint files and quarantines decayed ones. 0 disables the
	// background scrubber (ScrubPass may still be called explicitly).
	ScrubEvery time.Duration

	// ScrubRateMB caps the scrubber's read bandwidth in MiB/s so a large
	// directory cannot starve foreground I/O. 0 means unthrottled.
	ScrubRateMB int

	// FailOpen selects the disk-fault degradation policy: true keeps
	// serving and silently drops journal records while the disk is down
	// (advisory deployments — verdicts matter more than the journal);
	// false refuses writes with a DegradedError so no mutation is acked
	// that the journal cannot hold (enforcing deployments).
	FailOpen bool

	// OnDiskFull chooses the ENOSPC response: OnDiskFullPrune (default)
	// frees obsolete segments and spare checkpoints and retries the
	// append; OnDiskFullFail degrades immediately.
	OnDiskFull string

	// ProbeEvery is how often a degraded node probes the medium for
	// recovery (default 1s).
	ProbeEvery time.Duration

	// Logf receives recovery and checkpoint notes; nil discards them.
	Logf func(format string, args ...interface{})

	// KeyRange, when set, is the partition-key range a split target owns:
	// tracker state is materialised only for segments whose segment.Key
	// falls in it, in replay and in a follower's stream alike — how the
	// target keeps, across promotion and restarts, a WAL whose bytes were
	// mirrored from the source partition verbatim. Registry effects
	// (labels are global shadow state) apply unconditionally.
	KeyRange *segment.KeyRange
}

// RecoveryStats describes what recovery found and did.
type RecoveryStats struct {
	// CheckpointLoaded is the file name of the checkpoint restored (empty
	// when starting from an empty directory).
	CheckpointLoaded string

	// CheckpointSeg is the restored checkpoint's WAL epoch barrier.
	CheckpointSeg uint64

	// CorruptCheckpoints counts checkpoint files that failed to load and
	// were skipped in favour of an older one.
	CorruptCheckpoints int

	// ObsoleteSegments counts WAL segments below the barrier removed
	// before replay.
	ObsoleteSegments int

	// RecordsReplayed counts WAL records applied on top of the
	// checkpoint.
	RecordsReplayed int64

	// TornBytesTruncated is how many trailing bytes the WAL torn-tail
	// scan discarded.
	TornBytesTruncated int64

	// ReplaySkipped counts records that failed to apply during a
	// gap-degraded replay (a quarantined segment removed state they
	// depended on). Zero unless the log had recovery gaps.
	ReplaySkipped int64

	// Duration is the wall-clock time recovery took.
	Duration time.Duration
}

// DurabilityStats is the point-in-time durability summary exported on the
// tag service's metrics and health endpoints.
type DurabilityStats struct {
	WAL               wal.Stats
	Checkpoints       int64
	CheckpointErrors  int64
	LastCheckpointSeg uint64
	LastCheckpointAt  time.Time
	Recovery          RecoveryStats
	Disk              DiskState
	Scrub             ScrubStats
}

// Durable is the durability subsystem: WAL journal + checkpointer +
// recovery. It implements policy.Journal.
type Durable struct {
	opts     DurableOptions
	fs       wal.FS
	log      *wal.Log
	tracker  *disclosure.Tracker
	registry *tdm.Registry

	// barrier serialises checkpoints against journalled mutations: Begin
	// takes the read side around (mutate + append); Checkpoint takes the
	// write side around (rotate + capture).
	barrier sync.RWMutex

	recovery RecoveryStats

	// Follower role (follower.go). following is written under barrier and
	// mu both, so either lock reads it; applier is the stream's one record
	// applier, built at open (replay or reset) and dropped by Promote.
	following bool
	applier   *Applier
	traces    *obs.TraceLog
	position  wal.Pos // through which streamed records are applied (mu)

	mu                sync.Mutex
	checkpoints       int64
	checkpointErrs    int64
	lastCheckpointSeg uint64
	lastCheckpointAt  time.Time
	recordsAtLastCkpt int64
	checkpointDue     bool // a follower was asked for one mid-segment

	// Disk-fault degradation state (see faults.go).
	degraded       bool
	degradedSince  time.Time
	degradedCause  string
	droppedRecords int64
	diskRecoveries int64
	probing        bool

	// At-rest scrub state (see scrub.go).
	scrub ScrubStats

	stop    chan struct{}
	done    chan struct{}
	quiesce chan struct{} // closed by Close; stops scrub + probe loops
	wg      sync.WaitGroup
	closed  bool
}

var _ policy.Journal = (*Durable)(nil)

// checkpointName and parseCheckpointName are internal aliases of the
// exported helpers in applier.go (the hex field is the WAL epoch barrier
// segment).
func checkpointName(seg uint64) string               { return CheckpointName(seg) }
func parseCheckpointName(name string) (uint64, bool) { return ParseCheckpointName(name) }

// OpenDurable recovers the state in opts.Dir into tracker and registry
// (newest valid checkpoint + WAL replay), then opens the WAL for
// journalling and starts the background checkpointer. The returned
// Durable should be installed with engine.SetJournal and Closed at
// shutdown.
func OpenDurable(opts DurableOptions, tracker *disclosure.Tracker, registry *tdm.Registry) (*Durable, error) {
	return openDurable(opts, tracker, registry, false, nil)
}

func openDurable(opts DurableOptions, tracker *disclosure.Tracker, registry *tdm.Registry, following bool, traces *obs.TraceLog) (*Durable, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: durable Dir is required")
	}
	if opts.FS == nil {
		opts.FS = wal.OSFS{}
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = DefaultKeepCheckpoints
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	if opts.OnDiskFull == "" {
		opts.OnDiskFull = OnDiskFullPrune
	}
	if opts.OnDiskFull != OnDiskFullPrune && opts.OnDiskFull != OnDiskFullFail {
		return nil, fmt.Errorf("store: unknown OnDiskFull policy %q", opts.OnDiskFull)
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = time.Second
	}
	opts.Clock = clock.Or(opts.Clock)
	d := &Durable{
		opts:      opts,
		fs:        opts.FS,
		tracker:   tracker,
		registry:  registry,
		following: following,
		traces:    traces,
		quiesce:   make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	if opts.CheckpointEvery > 0 {
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.checkpointLoop(opts.Clock.NewTimer(opts.CheckpointEvery))
	}
	if opts.ScrubEvery > 0 {
		d.wg.Add(1)
		go d.scrubLoop(opts.Clock.NewTimer(opts.ScrubEvery))
	}
	return d, nil
}

// recover performs checkpoint load + WAL replay and opens the log.
func (d *Durable) recover() error {
	start := d.opts.Clock.Now()
	if err := d.fs.MkdirAll(d.opts.Dir, 0o700); err != nil {
		return fmt.Errorf("store: mkdir %s: %w", d.opts.Dir, err)
	}

	// 1. Newest checkpoint that loads and restores cleanly wins, bulk-
	// loaded straight into the index DBs (via mmap when the filesystem
	// supports it). A checkpoint in a retired format fails recovery
	// instead of being skipped.
	barrier, name, corrupt, err := RecoverNewestCheckpoint(d.fs, d.opts.Dir, d.opts.Key, d.tracker, d.registry, d.opts.Logf)
	if err != nil {
		return err
	}
	d.recovery.CorruptCheckpoints = corrupt
	d.recovery.CheckpointLoaded = name
	d.recovery.CheckpointSeg = barrier

	// 2. Segments entirely covered by the checkpoint are obsolete; clear
	// them before the WAL validates the log, so stale corruption below the
	// barrier is neither quarantined nor counted as a gap.
	if barrier > 0 {
		removed, err := wal.RemoveSegmentsBelow(d.fs, d.opts.Dir, barrier)
		if err != nil {
			return err
		}
		d.recovery.ObsoleteSegments = removed
	}

	// 3. Open the WAL: torn tail truncated; a mid-log CRC mismatch in a
	// sealed segment (at-rest decay, not a torn write) quarantines that
	// segment and recovery resumes at the next valid segment boundary
	// rather than refusing to start — the gap is counted and logged. The
	// MinSegment floor keeps new appends above the checkpoint's epoch even
	// when every segment file was lost with the crash.
	open := wal.Open
	if d.following {
		open = wal.OpenFollowing
	}
	log, err := open(wal.Options{
		Dir:          d.opts.Dir,
		FS:           d.fs,
		Clock:        d.opts.Clock,
		Policy:       d.opts.Fsync,
		Interval:     d.opts.FsyncInterval,
		SegmentBytes: d.opts.SegmentBytes,
		MinSegment:   barrier + 1,
		Logf:         d.opts.Logf,
	})
	if err != nil {
		return err
	}
	d.log = log
	d.recovery.TornBytesTruncated = log.Stats().TornBytesTruncated

	// 4. Replay the surviving suffix through a journal-less engine so
	// every side effect (labels, implicit tags, stored-by marks, audit)
	// is regenerated by the same code that produced it. A follower whose
	// directory is not a full history starts over instead, and one whose
	// checkpoint outlived every segment stands at the checkpoint's barrier.
	if d.following && !d.fullHistory(barrier, name) {
		d.opts.Logf("store: follower directory is not a full history (checkpoint %s); resetting for a fresh snapshot", orEmpty(name, "missing"))
		barrier = 0
		if err = d.wipe(); err == nil {
			d.applier, err = d.newApplier()
		}
	} else {
		err = d.replay(barrier)
	}
	if err == nil && d.following && barrier > 0 && log.End().IsZero() {
		_, _, err = log.AppendFrames(wal.Pos{Segment: barrier, Offset: wal.HeaderSize}, nil)
	}
	if err != nil {
		log.Close()
		return err
	}
	if d.following {
		d.position = log.End()
	}
	d.recovery.Duration = d.opts.Clock.Since(start)
	d.lastCheckpointSeg = barrier
	d.lastCheckpointAt = start
	d.recordsAtLastCkpt = 0
	if d.recovery.RecordsReplayed > 0 || d.recovery.CheckpointLoaded != "" {
		d.opts.Logf("store: recovered %s + %d WAL records in %v",
			orEmpty(d.recovery.CheckpointLoaded, "no checkpoint"),
			d.recovery.RecordsReplayed, d.recovery.Duration.Round(time.Millisecond))
	}
	return nil
}

func orEmpty(s, alt string) string {
	if s == "" {
		return alt
	}
	return s
}

// replay applies every WAL record in segments >= barrier through the
// shared Applier (the same idempotent path streaming replicas use).
// When the log came up with recovery gaps (quarantined segments), a
// record that fails to apply is skipped and counted instead of fatal:
// the state it depended on died with the quarantined segment, and
// refusing to start would turn one decayed file into a dead node.
func (d *Durable) replay(barrier uint64) error {
	applier, err := d.newApplier()
	if err != nil {
		return err
	}
	if d.following {
		d.applier = applier // the stream's one applier from here on
	}
	walStats := d.log.Stats()
	tolerate := walStats.RecoveryGaps > 0 || walStats.QuarantinedSegments > 0
	return d.log.Replay(barrier, func(seg uint64, rec wal.Record) error {
		if err := applier.Apply(rec); err != nil {
			if tolerate {
				d.recovery.ReplaySkipped++
				if d.recovery.ReplaySkipped <= 3 {
					d.opts.Logf("store: replay over gap: skipping record in segment %d: %v", seg, err)
				}
				return nil
			}
			return fmt.Errorf("store: replay segment %d: %w", seg, err)
		}
		d.recovery.RecordsReplayed++
		return nil
	})
}

// newApplier builds a record applier under the store's key range.
func (d *Durable) newApplier() (*Applier, error) {
	applier, err := NewApplier(d.tracker, d.registry)
	if err != nil {
		return nil, err
	}
	applier.keys = d.opts.KeyRange
	applier.SetTraceLog(d.traces)
	return applier, nil
}

// --- policy.Journal --------------------------------------------------------

// Begin implements policy.Journal: it takes the read side of the
// checkpoint barrier around one mutation + its journal appends.
func (d *Durable) Begin() (end func()) {
	d.barrier.RLock()
	return d.barrier.RUnlock
}

func (d *Durable) append(rec wal.Record, err error) error {
	if err != nil {
		return err
	}
	return d.journalAppend(rec)
}

// appendTraced appends a record and, when ctx carries a trace, records
// a "wal.append" span timing the append (frame + fsync per policy).
func (d *Durable) appendTraced(ctx context.Context, rec wal.Record, err error) error {
	if err != nil {
		return err
	}
	sp := obs.StartSpan(ctx, "wal.append")
	err = d.journalAppend(rec)
	sp.End(err)
	return err
}

// Observe implements policy.Journal. The request's trace ID (if any)
// is journalled with the record, so streaming replicas can attribute
// their apply work to the originating request.
func (d *Durable) Observe(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32) error {
	rec, err := encodeObserve(seg, service, g, hashes, obs.TraceID(ctx))
	return d.appendTraced(ctx, rec, err)
}

// ObserveBatch implements policy.Journal.
func (d *Durable) ObserveBatch(ctx context.Context, service string, items []disclosure.BatchObservation) error {
	rec, err := encodeObserveBatch(service, items, obs.TraceID(ctx))
	return d.appendTraced(ctx, rec, err)
}

// Control implements policy.Journal: the op and its audit entries are one
// record.
func (d *Durable) Control(op policy.ControlOp, entries []audit.Entry) error {
	return d.append(encodeControl(controlOp{ControlOp: op, Audit: entries}))
}

// AuditAppend implements policy.Journal.
func (d *Durable) AuditAppend(entries []audit.Entry) error {
	return d.append(encodeAudit(entries))
}

// ObserveResolved implements policy.Journal for partition-mode
// observations applied with router-resolved sources.
func (d *Durable) ObserveResolved(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) error {
	rec, err := encodeObserveResolved(observeResolvedOp{
		Seg: seg, Service: service, G: g, Clock: clock,
		Hashes: hashes, Sources: sources, Tags: tags,
		Trace: obs.TraceID(ctx),
	})
	return d.appendTraced(ctx, rec, err)
}

// PruneRange implements policy.Journal for post-split key-range removal.
func (d *Durable) PruneRange(ctx context.Context, lo, hi uint32) error {
	rec, err := encodePruneRange(lo, hi)
	return d.appendTraced(ctx, rec, err)
}

// --- checkpointer ----------------------------------------------------------

// Checkpoint captures a snapshot behind a WAL epoch barrier, installs it
// durably and truncates the WAL and older checkpoints behind it. It is
// safe to call concurrently with traffic; mutations block only for the
// rotate + in-memory capture, never for the file write.
func (d *Durable) Checkpoint() error {
	blob, barrier, err := d.CaptureImage(nil)
	if err == errMidSegment {
		d.mu.Lock()
		d.checkpointDue = true
		d.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	path := filepath.Join(d.opts.Dir, checkpointName(barrier))
	if err := SaveCheckpointBytes(d.fs, path, blob, d.opts.Key); err != nil {
		d.mu.Lock()
		d.checkpointErrs++
		d.mu.Unlock()
		return fmt.Errorf("store: write checkpoint: %w", err)
	}

	// The checkpoint is durable: everything it covers is now obsolete.
	if err := d.log.TruncateBefore(barrier); err != nil {
		d.opts.Logf("store: wal truncate after checkpoint: %v", err)
	}
	if err := PruneCheckpoints(d.fs, d.opts.Dir, barrier, d.opts.KeepCheckpoints); err != nil {
		d.opts.Logf("store: prune checkpoints: %v", err)
	}

	d.noteCheckpoint(barrier)
	return nil
}

// noteCheckpoint records that a checkpoint at barrier is durably on disk.
func (d *Durable) noteCheckpoint(barrier uint64) {
	appended := d.log.Stats().RecordsAppended
	d.mu.Lock()
	d.checkpoints++
	d.lastCheckpointSeg = barrier
	d.lastCheckpointAt = d.opts.Clock.Now()
	d.recordsAtLastCkpt = appended
	d.checkpointDue = false
	d.mu.Unlock()
}

// PruneCheckpoints removes old checkpoint files from dir, keeping the
// newest keep of those at or below barrier (the one at barrier included).
// The emergency ENOSPC path calls it with keep=1 to free every spare; a
// follower's wipe with keep=0.
func PruneCheckpoints(fs wal.FS, dir string, barrier uint64, keep int) error {
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		return err
	}
	var segs []uint64
	for _, name := range names {
		if seg, ok := parseCheckpointName(name); ok && seg <= barrier {
			segs = append(segs, seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] > segs[j] })
	for _, seg := range segs[min(len(segs), keep):] {
		if err := fs.Remove(filepath.Join(dir, checkpointName(seg))); err != nil {
			return err
		}
	}
	return nil
}

// checkpointLoop is the background checkpointer.
func (d *Durable) checkpointLoop(t clock.Timer) {
	defer close(d.done)
	clock.Every(d.opts.Clock, t, d.opts.CheckpointEvery, d.stop, func() bool {
		if d.covered() {
			return true // nothing new to cover
		}
		if err := d.Checkpoint(); err != nil {
			d.opts.Logf("store: background checkpoint: %v", err)
		}
		return true
	})
}

// covered reports whether the newest checkpoint on disk already holds the
// whole state: one exists, nothing was appended since it, and, when it is
// the one recovery loaded rather than one written since, recovery replayed
// no records on top of it. A degraded store is never covered: failing open,
// it acks mutations it does not journal.
func (d *Durable) covered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.degraded {
		return false
	}
	if d.checkpoints == 0 && (d.recovery.CheckpointLoaded == "" || d.recovery.RecordsReplayed > 0) {
		return false
	}
	return d.log.Stats().RecordsAppended == d.recordsAtLastCkpt
}

// Sync forces the WAL to stable storage regardless of fsync policy.
func (d *Durable) Sync() error { return d.log.Sync() }

// WAL exposes the underlying log for read-side consumers (the
// replication stream endpoint reads raw frames and waits for appends
// through it). Appends must still go through the Journal interface, or
// Follow.
func (d *Durable) WAL() *wal.Log { return d.log }

// StateDigest returns the tracker's anti-entropy digest. The primary
// serves it on /v1/repl/digest and compares it against the digest each
// caught-up replica reports on its stream rounds.
func (d *Durable) StateDigest() disclosure.TrackerDigest {
	return d.tracker.Digest()
}

// CaptureImage rotates to a fresh WAL epoch barrier and encodes the state
// behind it straight into a plaintext BFLOWSNB image, without installing
// it on disk. The checkpointer seals and installs the bytes; the
// replication snapshot endpoint serves them verbatim to bootstrapping
// replicas, which then stream from the barrier segment onwards. The extra
// segment rotation a served snapshot costs is harmless — the next durable
// Checkpoint simply rotates again. A non-nil kr restricts the image's
// index state to that key range (a split target's bootstrap; see
// filterImage).
//
// A follower's log cannot rotate; it has a barrier only while the stream
// stands at a segment's header boundary (follower.go).
func (d *Durable) CaptureImage(kr *segment.KeyRange) (blob []byte, barrier uint64, err error) {
	d.barrier.Lock()
	if !d.following {
		barrier, err = d.log.Rotate()
	} else if end := d.log.End(); end.Offset == wal.HeaderSize {
		barrier = end.Segment
	} else {
		err = errMidSegment
	}
	if err != nil {
		d.barrier.Unlock()
		return nil, 0, err
	}
	blob, err = CaptureBytes(d.tracker, d.registry, barrier, d.opts.Clock.Now())
	d.barrier.Unlock()
	if err != nil {
		d.mu.Lock()
		d.checkpointErrs++
		d.mu.Unlock()
		return nil, 0, fmt.Errorf("store: capture checkpoint: %w", err)
	}
	if kr != nil {
		if blob, err = filterImage(blob, d.tracker.Params(), *kr); err != nil {
			return nil, 0, err
		}
	}
	return blob, barrier, nil
}

// Stats returns the current durability summary.
func (d *Durable) Stats() DurabilityStats {
	quarantined := wal.CountQuarantined(d.fs, d.opts.Dir)
	d.mu.Lock()
	defer d.mu.Unlock()
	scrub := d.scrub
	scrub.QuarantinedFiles = quarantined
	return DurabilityStats{
		WAL:               d.log.Stats(),
		Checkpoints:       d.checkpoints,
		CheckpointErrors:  d.checkpointErrs,
		LastCheckpointSeg: d.lastCheckpointSeg,
		LastCheckpointAt:  d.lastCheckpointAt,
		Recovery:          d.recovery,
		Disk: DiskState{
			Degraded:       d.degraded,
			FailOpen:       d.opts.FailOpen,
			Cause:          d.degradedCause,
			Since:          d.degradedSince,
			DroppedRecords: d.droppedRecords,
			Recoveries:     d.diskRecoveries,
			ProbeEvery:     d.opts.ProbeEvery,
		},
		Scrub: scrub,
	}
}

// Close stops the background checkpointer, takes a final checkpoint unless
// the newest one already covers the state (an idle store writes nothing),
// then syncs and closes the WAL. Even when the final checkpoint fails, the
// synced WAL still carries every journalled mutation for the next recovery.
// Close is idempotent; calls after the first are no-ops.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.quiesce) // stop the scrubber and any recovery probe loop
	d.wg.Wait()
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	var ckptErr error
	if !d.covered() {
		ckptErr = d.Checkpoint()
	}
	if err := d.log.Sync(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	if err := d.log.Close(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	return ckptErr
}
