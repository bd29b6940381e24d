// faults.go is the disk-fault degradation layer: it classifies write
// errors surfacing from the WAL append path (EIO, ENOSPC, read-only
// remount), moves the node into an explicit degraded state instead of
// failing every request differently, and probes the medium in the
// background so the node rejoins on its own when the disk heals.
//
// Two policies, chosen by the deployment's engine mode:
//
//   - fail-closed (enforcing): appends return a *DegradedError — the
//     caller answers 503 + Retry-After and nothing is acked that the
//     journal cannot hold;
//   - fail-open (advisory): appends succeed without journalling — the
//     in-memory index keeps serving verdicts while dropped records are
//     counted. Recovery heals the journal gap with a forced checkpoint,
//     which captures the full in-memory state (dropped mutations
//     included) behind a fresh WAL barrier.
//
// ENOSPC gets one self-recovery attempt before degrading: everything
// below the last durable checkpoint is redundant, so spare checkpoints
// and obsolete segments are pruned and the append retried.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/wal"
)

// OnDiskFull policies.
const (
	// OnDiskFullPrune frees spare checkpoints and obsolete WAL segments
	// and retries the append before degrading (the default).
	OnDiskFullPrune = "prune"
	// OnDiskFullFail degrades immediately on ENOSPC.
	OnDiskFullFail = "fail"
)

// probeFileName is the throwaway file the recovery probe writes. The name
// parses as neither a WAL segment nor a checkpoint, so scans ignore it.
const probeFileName = "probe.tmp"

// DegradedError is returned by journal appends while the node is
// fail-closed degraded. The HTTP layer maps it to 503 with a Retry-After
// of the probe cadence.
type DegradedError struct {
	// Cause is the error class that degraded the node ("eio", "enospc",
	// "erofs").
	Cause string
	// Since is when the node entered the degraded state.
	Since time.Time
	// RetryAfter is the probe cadence — the soonest recovery could be
	// detected.
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("store: journal degraded (%s) since %s", e.Cause, e.Since.Format(time.RFC3339))
}

// DiskState is the degradation summary exported in DurabilityStats.
type DiskState struct {
	Degraded       bool      `json:"degraded"`
	FailOpen       bool      `json:"fail_open"`
	Cause          string    `json:"cause,omitempty"`
	Since          time.Time `json:"since"`
	DroppedRecords int64     `json:"dropped_records"`
	Recoveries     int64     `json:"recoveries"`
	// ProbeEvery is the recovery-probe cadence — the Retry-After hint the
	// HTTP layer hands fail-closed callers.
	ProbeEvery time.Duration `json:"probe_every"`
}

// classifyDiskError maps a WAL append/fsync error to a degradation cause.
// The WAL wraps the underlying errno with %w, so errors.Is sees through.
func classifyDiskError(err error) (cause string, ok bool) {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return "enospc", true
	case errors.Is(err, syscall.EIO):
		return "eio", true
	case errors.Is(err, syscall.EROFS):
		return "erofs", true
	}
	return "", false
}

// journalAppend is the single funnel every journalled record goes
// through: healthy → plain WAL append; disk fault → classify, maybe
// self-recover (ENOSPC prune), else degrade per policy.
func (d *Durable) journalAppend(rec wal.Record) error {
	return d.journalWrite(func() error { return d.log.Append(rec) })
}

// journalWrite runs one write to the log — a record append, or a
// follower's batch of streamed frames — under the disk-fault policy.
func (d *Durable) journalWrite(write func() error) error {
	d.mu.Lock()
	if d.degraded {
		err := d.degradedAppendLocked()
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	err := write()
	if err == nil {
		return nil
	}
	cause, disk := classifyDiskError(err)
	if !disk {
		return err // not a medium fault: surface it unchanged
	}
	if cause == "enospc" && d.opts.OnDiskFull == OnDiskFullPrune {
		d.emergencyPrune()
		if retryErr := write(); retryErr == nil {
			d.opts.Logf("store: ENOSPC healed by pruning; append retried")
			return nil
		}
	}
	return d.enterDegraded(cause, err)
}

// degradedAppendLocked resolves an append while degraded: fail-open
// counts the dropped record and acks, fail-closed returns a typed
// DegradedError. A follower always gets the error: a frame it did not
// write must not be applied, and the primary still has it. Callers hold
// d.mu.
func (d *Durable) degradedAppendLocked() error {
	if d.opts.FailOpen && !d.following {
		d.droppedRecords++
		return nil
	}
	return &DegradedError{Cause: d.degradedCause, Since: d.degradedSince, RetryAfter: d.opts.ProbeEvery}
}

// enterDegraded flips the node into the degraded state (idempotent) and
// starts the background probe loop, then resolves the triggering append
// per policy.
func (d *Durable) enterDegraded(cause string, err error) error {
	d.mu.Lock()
	if !d.degraded {
		d.degraded = true
		d.degradedSince = d.opts.Clock.Now()
		d.degradedCause = cause
		d.opts.Logf("store: journal degraded (%s, fail-open=%v): %v", cause, d.opts.FailOpen, err)
		if !d.probing && !d.closed {
			d.probing = true
			d.wg.Add(1)
			go d.probeLoop(d.opts.Clock.NewTimer(d.opts.ProbeEvery))
		}
	}
	ret := d.degradedAppendLocked()
	d.mu.Unlock()
	return ret
}

// emergencyPrune frees disk space under ENOSPC: checkpoint spares beyond
// the newest and WAL segments below the last durable barrier are all
// redundant. Quarantined files are never touched — they are evidence.
func (d *Durable) emergencyPrune() {
	d.mu.Lock()
	barrier := d.lastCheckpointSeg
	d.mu.Unlock()
	if barrier == 0 {
		return // nothing is redundant yet
	}
	if err := d.log.TruncateBefore(barrier); err != nil {
		d.opts.Logf("store: emergency prune segments: %v", err)
	}
	if err := PruneCheckpoints(d.fs, d.opts.Dir, barrier, 1); err != nil {
		d.opts.Logf("store: emergency prune checkpoints: %v", err)
	}
}

// probeLoop retries ProbeRecover at the probe cadence until the node
// recovers or shuts down.
func (d *Durable) probeLoop(t clock.Timer) {
	defer d.wg.Done()
	clock.Every(d.opts.Clock, t, d.opts.ProbeEvery, d.quiesce, func() bool {
		recovered, _ := d.ProbeRecover()
		return !recovered
	})
	d.mu.Lock()
	d.probing = false
	d.mu.Unlock()
}

// ProbeRecover checks whether the medium accepts writes again and, if it
// does, heals the node: a forced checkpoint captures the complete
// in-memory state behind a fresh WAL barrier — rotating away from any
// torn frame the failing write left in the active segment, and folding
// in every mutation a fail-open window did not journal — and only then
// is the degraded flag cleared. It reports whether the node is healthy
// (trivially true when it never degraded).
func (d *Durable) ProbeRecover() (bool, error) {
	d.mu.Lock()
	if !d.degraded {
		d.mu.Unlock()
		return true, nil
	}
	d.mu.Unlock()

	if err := d.probeDisk(); err != nil {
		return false, err
	}
	if err := d.Checkpoint(); err != nil {
		return false, err
	}
	d.mu.Lock()
	d.degraded = false
	d.degradedCause = ""
	d.diskRecoveries++
	dropped := d.droppedRecords
	d.mu.Unlock()
	if dropped > 0 {
		d.opts.Logf("store: disk recovered; journaling resumed (%d records dropped while fail-open, now covered by checkpoint)", dropped)
	} else {
		d.opts.Logf("store: disk recovered; journaling resumed")
	}
	return true, nil
}

// probeDisk performs one cheap write+fsync+remove round trip against the
// durable directory.
func (d *Durable) probeDisk() error {
	path := filepath.Join(d.opts.Dir, probeFileName)
	f, err := d.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("bfprobe"))
	serr := f.Sync()
	f.Close()
	rerr := d.fs.Remove(path)
	for _, e := range []error{werr, serr, rerr} {
		if e != nil {
			return e
		}
	}
	return nil
}

// Degraded reports whether the journal is currently degraded and, if so,
// the policy in force.
func (d *Durable) Degraded() (degraded, failOpen bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded, d.opts.FailOpen
}
