package wal

// At-rest verification and quarantine. Sealed segments are immutable, so
// any CRC mismatch found after a successful recovery is silent data decay
// (bit rot, firmware lies, a misdirected write) rather than a torn tail.
// The store's scrubber re-verifies sealed segments with VerifySegmentFile
// and pulls a decayed one out of the replay path with Quarantine — a
// rename, never a delete, so the evidence survives for forensics and a
// smarter future repair.

import (
	"fmt"
	"path/filepath"
	"strings"
)

// QuarantineSuffix is appended to a corrupt file's name when it is pulled
// out of the recovery path. Quarantined names no longer parse as WAL
// segments (or checkpoints), so every list/replay/recovery scan skips
// them without special cases.
const QuarantineSuffix = ".quarantine"

// VerifySegmentFile re-validates every frame of segment idx in dir,
// returning the record count and valid byte length. A header or frame
// error comes back as *CorruptError with the byte offset of the first
// invalid byte — the same strictness Open applies to sealed segments.
func VerifySegmentFile(fsys FS, dir string, idx uint64, maxRecord int) (records int, bytes int64, err error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	path := filepath.Join(dir, SegmentName(idx))
	data, release, _, err := MapFile(fsys, path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: verify read %s: %w", path, err)
	}
	defer release() //nolint:errcheck
	records, validLen, scanErr := scanSegment(data, idx, maxRecord, nil)
	if scanErr != nil {
		return records, int64(validLen), &CorruptError{Path: path, Offset: int64(validLen), Reason: scanErr.Error()}
	}
	return records, int64(validLen), nil
}

// CountQuarantined counts quarantined files in dir (WAL segments and
// checkpoints alike); /healthz surfaces it so an operator notices decay
// the node healed around.
func CountQuarantined(fsys FS, dir string) int {
	if fsys == nil {
		fsys = OSFS{}
	}
	names, err := fsys.ReadDirNames(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, QuarantineSuffix) {
			n++
		}
	}
	return n
}

// quarantineFile renames path aside and syncs the directory entry.
func quarantineFile(fsys FS, dir, path string) error {
	if err := fsys.Rename(path, path+QuarantineSuffix); err != nil {
		return fmt.Errorf("wal: quarantine %s: %w", path, err)
	}
	return fsys.SyncDir(dir)
}

// QuarantineFile renames any file in dir aside with QuarantineSuffix
// (checkpoint scrubbing uses it; segment quarantine on a live log goes
// through Log.Quarantine so the in-memory tables stay consistent).
func QuarantineFile(fsys FS, dir, name string) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	return quarantineFile(fsys, dir, filepath.Join(dir, name))
}

// SealedSegments returns the live segment indexes strictly below the
// current append segment — the immutable set the scrubber walks.
func (l *Log) SealedSegments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.segs))
	for _, idx := range l.segs {
		if idx < l.curSeg {
			out = append(out, idx)
		}
	}
	return out
}

// segmentPath returns the path of segment idx inside the log directory.
func (l *Log) segmentPath(idx uint64) string {
	return filepath.Join(l.opts.Dir, SegmentName(idx))
}

// MaxRecordBytes returns the configured per-record payload bound.
func (l *Log) MaxRecordBytes() int { return l.opts.MaxRecordBytes }

// Quarantine renames sealed segment idx aside and drops it from the live
// tables: replay, cursors and stats stop seeing it immediately, and the
// next Open sees a segment-index gap instead of mid-log corruption. The
// active append segment cannot be quarantined.
func (l *Log) Quarantine(idx uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if idx == l.curSeg {
		return fmt.Errorf("wal: cannot quarantine the active segment %d", idx)
	}
	found := false
	for _, s := range l.segs {
		if s == idx {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("wal: segment %d is not live", idx)
	}
	if err := quarantineFile(l.fs, l.opts.Dir, l.segmentPath(idx)); err != nil {
		return err
	}
	kept := l.segs[:0]
	for _, s := range l.segs {
		if s != idx {
			kept = append(kept, s)
		}
	}
	l.segs = kept
	delete(l.sizes, idx)
	l.quarantined++
	l.notifyLocked() // wake tailing cursors so they renormalise over the gap
	return nil
}
