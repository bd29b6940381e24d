// The read side of a log directory: the one validation pass and the one
// record walk. Open and OpenFollowing validate through validateDir;
// Log.Replay (crash recovery in either role) walks records through Replay.
// Both parse frames only through scanSegment.
package wal

import (
	"fmt"
	"path/filepath"
)

// dirScan is what validateDir found in a log directory, after its repairs.
type dirScan struct {
	segs        []uint64         // live segment indexes, ascending
	sizes       map[uint64]int64 // valid byte length of each live segment
	records     int64            // valid records across all live segments
	tornBytes   int64            // bytes the torn-tail repair discarded
	quarantined int64            // corrupt sealed segments renamed aside
}

// validateDir scans every segment in dir. A bad frame or header in the
// newest segment is a torn tail: the segment is truncated at the first bad
// byte, or removed when not even its header survived. Anywhere else it is
// mid-log corruption: the whole segment is renamed aside (a partial replay
// of an interior segment would resurrect a state the log never contained)
// and the index gap is left for the caller to account for.
func validateDir(fs FS, dir string, maxRecord int, logf func(string, ...interface{})) (dirScan, error) {
	sc := dirScan{sizes: make(map[uint64]int64)}
	segs, err := ListSegments(fs, dir)
	if err != nil {
		return sc, err
	}
	for i, idx := range segs {
		path := filepath.Join(dir, SegmentName(idx))
		data, err := fs.ReadFile(path)
		if err != nil {
			return sc, fmt.Errorf("wal: read %s: %w", path, err)
		}
		records, validLen, scanErr := scanSegment(data, idx, maxRecord, nil)
		sealed := i < len(segs)-1
		switch {
		case scanErr == nil:
		case sealed:
			// Records above the newest checkpoint that lived here are lost
			// locally; anti-entropy digests detect and repair any replica
			// this diverges.
			logf("wal: quarantining corrupt sealed segment %s (byte %d: %s)", path, validLen, scanErr)
			if err := quarantineFile(fs, dir, path); err != nil {
				return sc, err
			}
			sc.quarantined++
			continue
		case validLen < headerSize:
			logf("wal: removing torn segment %s (%s)", path, scanErr)
			sc.tornBytes += int64(len(data))
			err := fs.Remove(path)
			if err == nil {
				err = fs.SyncDir(dir) // or a crash brings it back
			}
			if err != nil {
				return sc, fmt.Errorf("wal: remove torn segment: %w", err)
			}
			continue
		default:
			logf("wal: truncating torn tail of %s at byte %d (%s)", path, validLen, scanErr)
			sc.tornBytes += int64(len(data) - validLen)
			if err := fs.Truncate(path, int64(validLen)); err != nil {
				return sc, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		sc.segs = append(sc.segs, idx)
		sc.sizes[idx] = int64(validLen)
		sc.records += int64(records)
	}
	return sc, nil
}

// Replay streams every record in dir's segments with index >= fromSeg,
// oldest first, to fn. It reads from disk, so it reflects exactly what a
// restart would see. A malformed frame in the newest segment ends the walk
// (a torn tail, or an append racing the read); in any older segment it is
// a *CorruptError, returned before any record of that segment reaches fn.
// A record's Data aliases the segment image it was read from. fs nil means
// OSFS; maxRecord <= 0 means DefaultMaxRecordBytes.
func Replay(fs FS, dir string, fromSeg uint64, maxRecord int, fn func(seg uint64, rec Record) error) error {
	if fs == nil {
		fs = OSFS{}
	}
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	segs, err := ListSegments(fs, dir)
	if err != nil {
		return err
	}
	for i, idx := range segs {
		if idx < fromSeg {
			continue
		}
		path := filepath.Join(dir, SegmentName(idx))
		data, err := fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: replay read %s: %w", path, err)
		}
		var recs []Record
		_, validLen, scanErr := scanSegment(data, idx, maxRecord, func(rec Record) { recs = append(recs, rec) })
		if scanErr != nil && i < len(segs)-1 {
			return &CorruptError{Path: path, Offset: int64(validLen), Reason: scanErr.Error()}
		}
		for _, rec := range recs {
			if err := fn(idx, rec); err != nil {
				return err
			}
		}
	}
	return nil
}
