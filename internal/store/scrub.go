// scrub.go is the at-rest scrubber: a background loop that continuously
// re-verifies the CRC framing of everything durable — sealed WAL
// segments and checkpoint images — at a bounded I/O rate, so silent
// decay (bit rot, firmware lies, misdirected writes) is found while the
// node still holds a good copy of the state in memory, not at the next
// restart when that copy is gone.
//
// A decayed file is quarantined (renamed aside, never deleted) and a
// checkpoint is forced immediately: the live in-memory state — which
// still includes every record the quarantined file held — is captured
// behind a fresh WAL barrier, so the quarantine gap is durably healed
// within one checkpoint write. Only a crash inside that small window can
// cost acked writes, and only those in the decayed file itself.
package store

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/wal"
)

// ScrubStats is the scrubber summary exported in DurabilityStats.
type ScrubStats struct {
	// Passes counts completed scrub passes over the whole directory.
	Passes int64 `json:"passes"`
	// LastPassAt is when the most recent pass finished.
	LastPassAt time.Time `json:"last_pass_at"`
	// LastPassDuration is how long that pass took (rate-limit waits
	// included).
	LastPassDuration time.Duration `json:"last_pass_duration"`
	// SegmentsVerified / FramesVerified / BytesVerified count clean
	// verification work across all passes.
	SegmentsVerified int64 `json:"segments_verified"`
	FramesVerified   int64 `json:"frames_verified"`
	BytesVerified    int64 `json:"bytes_verified"`
	// CheckpointsVerified counts checkpoint images verified clean.
	CheckpointsVerified int64 `json:"checkpoints_verified"`
	// CorruptionsFound counts files that failed re-verification.
	CorruptionsFound int64 `json:"corruptions_found"`
	// Quarantines counts files renamed aside (segments + checkpoints).
	Quarantines int64 `json:"quarantines"`
	// LastCorruption describes the most recent finding (path + offset).
	LastCorruption string `json:"last_corruption,omitempty"`
	// QuarantinedFiles is the point-in-time count of *.quarantine files
	// in the durable directory (filled in by Stats).
	QuarantinedFiles int `json:"quarantined_files"`
}

// ImageInfo is what VerifyCheckpointFile reports about a checkpoint: the
// file's size at rest and, when its framing verified clean, the container
// version and each section's name and payload size, in file order.
type ImageInfo struct {
	Bytes    int64
	Version  int
	Sections []SectionInfo
}

// SectionInfo is one section's name and payload size.
type SectionInfo struct {
	Name  string
	Bytes int
}

// VerifyCheckpointFile re-validates a checkpoint image at rest: unseal
// (when keyed), then full container framing — section table CRC and
// every per-section CRC. Damage is a *CorruptSnapshotError carrying the
// byte offset of the first bad byte; an intact file in a format this build
// does not read is a *RetiredFormatError or *NewerFormatError.
func VerifyCheckpointFile(fs wal.FS, path string, key []byte) (ImageInfo, error) {
	if fs == nil {
		fs = wal.OSFS{}
	}
	data, release, _, err := wal.MapFile(fs, path)
	if err != nil {
		return ImageInfo{}, fmt.Errorf("store: verify read %s: %w", path, err)
	}
	defer release() //nolint:errcheck
	info := ImageInfo{Bytes: int64(len(data))}
	plain, err := unsealSnapshot(data, key)
	if err != nil {
		return info, &CorruptSnapshotError{Path: path, Offset: 0, Reason: err.Error()}
	}
	im, err := parseBinary(path, plain)
	if err != nil {
		return info, err
	}
	info.Version = int(im.version)
	for _, s := range im.sections {
		info.Sections = append(info.Sections, SectionInfo{Name: sectionNames[s.kind], Bytes: len(s.payload)})
	}
	return info, nil
}

// scrubLimiter paces scrub reads to a byte budget per second. Debt is
// accumulated and paid in one wait once it is long enough to matter, so
// small segments do not turn into thousands of micro-waits. Close cuts a
// wait short: stopped is then set, and the pass ends.
type scrubLimiter struct {
	bytesPerSec float64
	debt        float64 // seconds owed
	clock       clock.Clock
	quiesce     <-chan struct{}
	stopped     bool
}

func (l *scrubLimiter) pay(n int64) {
	if l.bytesPerSec <= 0 || n <= 0 {
		return
	}
	l.debt += float64(n) / l.bytesPerSec
	if l.debt < 0.001 {
		return
	}
	t := l.clock.NewTimer(time.Duration(l.debt * float64(time.Second)))
	defer t.Stop()
	l.debt = 0
	select {
	case <-t.C():
	case <-l.quiesce:
		l.stopped = true
	}
}

// scrubLoop runs ScrubPass every ScrubEvery until Close.
func (d *Durable) scrubLoop(t clock.Timer) {
	defer d.wg.Done()
	clock.Every(d.opts.Clock, t, d.opts.ScrubEvery, d.quiesce, func() bool {
		if _, err := d.ScrubPass(); err != nil {
			d.opts.Logf("store: scrub pass: %v", err)
		}
		return true
	})
}

// ScrubPass walks every sealed WAL segment and every checkpoint image
// once, verifying all CRC framing at the configured rate bound. Decayed
// files are quarantined and the state re-checkpointed immediately. It
// returns the number of corruptions found this pass. The background
// scrubber calls it on its cadence; tests and tools may call it
// directly. Close ends a pass waiting on its rate bound; such a pass is
// not counted in Passes.
func (d *Durable) ScrubPass() (corruptions int, err error) {
	start := d.opts.Clock.Now()
	limiter := &scrubLimiter{bytesPerSec: float64(d.opts.ScrubRateMB) * (1 << 20), clock: d.opts.Clock, quiesce: d.quiesce}
	var firstErr error
	needCheckpoint := false

	// Sealed segments. The list is re-fetched from the live log, so
	// segments truncated or rotated mid-pass are simply not visited.
	for _, idx := range d.log.SealedSegments() {
		if limiter.stopped {
			break
		}
		recs, bytes, verr := wal.VerifySegmentFile(d.fs, d.opts.Dir, idx, d.log.MaxRecordBytes())
		limiter.pay(bytes)
		if verr == nil {
			d.mu.Lock()
			d.scrub.SegmentsVerified++
			d.scrub.FramesVerified += int64(recs)
			d.scrub.BytesVerified += bytes
			d.mu.Unlock()
			continue
		}
		corruptions++
		d.noteCorruption(verr)
		if qerr := d.log.Quarantine(idx); qerr != nil {
			d.opts.Logf("store: quarantine segment %d: %v", idx, qerr)
			if firstErr == nil {
				firstErr = qerr
			}
			continue
		}
		d.mu.Lock()
		d.scrub.Quarantines++
		d.mu.Unlock()
		d.opts.Logf("store: scrub quarantined segment %d: %v", idx, verr)
		needCheckpoint = true
	}

	// Checkpoint images.
	names, derr := d.fs.ReadDirNames(d.opts.Dir)
	if derr != nil {
		return corruptions, derr
	}
	for _, name := range names {
		if _, ok := parseCheckpointName(name); !ok || limiter.stopped {
			continue
		}
		path := filepath.Join(d.opts.Dir, name)
		info, verr := VerifyCheckpointFile(d.fs, path, d.opts.Key)
		limiter.pay(info.Bytes)
		if verr == nil {
			d.mu.Lock()
			d.scrub.CheckpointsVerified++
			d.mu.Unlock()
			continue
		}
		if refusedFormat(verr) {
			// Not decay: the file holds state only another build can
			// read. Leave it where the operator can find it.
			d.opts.Logf("store: scrub: %v", verr)
			continue
		}
		corruptions++
		d.noteCorruption(verr)
		if qerr := wal.QuarantineFile(d.fs, d.opts.Dir, name); qerr != nil {
			d.opts.Logf("store: quarantine checkpoint %s: %v", name, qerr)
			if firstErr == nil {
				firstErr = qerr
			}
			continue
		}
		d.mu.Lock()
		d.scrub.Quarantines++
		d.mu.Unlock()
		d.opts.Logf("store: scrub quarantined checkpoint %s: %v", name, verr)
		needCheckpoint = true
	}

	// Re-capture the live state the moment anything was pulled out of
	// the recovery path, closing the durability gap the quarantine
	// opened.
	if needCheckpoint {
		if cerr := d.Checkpoint(); cerr != nil {
			d.opts.Logf("store: checkpoint after quarantine: %v", cerr)
			if firstErr == nil {
				firstErr = cerr
			}
		}
	}

	if limiter.stopped {
		return corruptions, firstErr
	}
	d.mu.Lock()
	d.scrub.Passes++
	d.scrub.LastPassAt = d.opts.Clock.Now()
	d.scrub.LastPassDuration = d.opts.Clock.Since(start)
	d.mu.Unlock()
	return corruptions, firstErr
}

// noteCorruption records a scrub finding in the stats.
func (d *Durable) noteCorruption(err error) {
	d.mu.Lock()
	d.scrub.CorruptionsFound++
	d.scrub.LastCorruption = err.Error()
	d.mu.Unlock()
}
