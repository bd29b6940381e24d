// Package wal implements the append-only write-ahead log behind
// BrowserFlow's crash-safe durability: every state mutation accepted by the
// shared tag service is journalled here before (or, for relaxed fsync
// policies, shortly after) the client is acknowledged, so that a crash
// loses at most the un-synced suffix of the log — never a previously
// synced observation, suppression or audit record.
//
// # On-disk format
//
// The log is a directory of segment files named wal-%016x.log. Each
// segment starts with a 17-byte header:
//
//	offset  size  field
//	0       8     magic "BFWALSEG"
//	8       1     format version (1)
//	9       8     segment index, big-endian
//
// followed by length-prefixed, CRC-framed records:
//
//	offset  size  field
//	0       4     CRC32C (Castagnoli) over bytes 4..end of frame
//	4       4     payload length, big-endian
//	8       1     record type (application-defined)
//	9       n     payload
//
// # Recovery semantics
//
// Open scans every segment. A bad frame in the *newest* segment is a torn
// tail — the expected signature of a crash mid-write — and the segment is
// truncated at the first bad byte. A bad frame (or bad header) in any
// older segment is mid-log corruption: at-rest decay, not a torn write.
// That whole segment is renamed aside with QuarantineSuffix (a partial
// replay of it would resurrect a state the log never contained) and
// recovery resumes at the next segment, reporting the gap in Stats; the
// store re-covers it from its newest checkpoint, and anti-entropy digests
// catch any replica it diverged. Appends always go to a fresh segment, so
// a recovered (truncated) tail is never written to again.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/obs"
)

// Segment header constants.
const (
	segMagic      = "BFWALSEG"
	formatVersion = 1
	headerSize    = 8 + 1 + 8
	frameOverhead = 4 + 4 + 1
)

// DefaultSegmentBytes is the rotation threshold used when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// DefaultMaxRecordBytes bounds a single record payload; longer lengths in
// a frame header are treated as corruption.
const DefaultMaxRecordBytes = 16 << 20

// DefaultSyncInterval is the group-commit cadence of SyncInterval when
// Options leaves Interval zero.
const DefaultSyncInterval = 50 * time.Millisecond

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI and
// most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrFollowing reports a record Append or Rotate on a log opened with
// OpenFollowing: its bytes are dictated by the log it follows.
var ErrFollowing = errors.New("wal: log is following")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Append before it returns: an
	// acknowledged record survives kill -9 and power loss.
	SyncAlways SyncPolicy = iota + 1

	// SyncInterval batches fsyncs on a timer (group commit): Append
	// returns after the OS write; a crash loses at most one interval of
	// acknowledged records.
	SyncInterval

	// SyncNone never fsyncs (the OS flushes at its leisure): fastest, and
	// a crash may lose everything since the last OS writeback.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy converts a -fsync flag value to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Record is one journalled entry: an application-defined type byte and an
// opaque payload.
type Record struct {
	Type byte
	Data []byte
}

// CorruptError reports a bad frame or header where the log must be
// intact: a sealed segment read by Replay, VerifySegmentFile or ReadFrom.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string

	// FS is the filesystem to write through; nil means OSFS.
	FS FS

	// Clock times fsyncs and paces group commit; nil means the real one.
	Clock clock.Clock

	// Policy selects the fsync policy; zero means SyncAlways.
	Policy SyncPolicy

	// Interval is the group-commit cadence for SyncInterval (default
	// DefaultSyncInterval).
	Interval time.Duration

	// SegmentBytes rotates to a new segment past this size (default
	// DefaultSegmentBytes).
	SegmentBytes int64

	// MinSegment is the lowest index the fresh append segment may take.
	// Recovery passes checkpointBarrier+1 so that new appends can never
	// land below an installed checkpoint's epoch — even when every
	// segment file was lost in a crash (possible under SyncNone, whose
	// directory entries are never fsynced).
	MinSegment uint64

	// MaxRecordBytes bounds one record payload (default
	// DefaultMaxRecordBytes).
	MaxRecordBytes int

	// Logf, when set, receives recovery notes (torn tails truncated,
	// segments removed).
	Logf func(format string, args ...interface{})
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	opts.Clock = clock.Or(opts.Clock)
	if opts.Policy == 0 {
		opts.Policy = SyncAlways
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	return opts
}

// Stats is a point-in-time summary of the log, exported as durability
// metrics.
type Stats struct {
	// RecordsAppended and BytesAppended count Appends by this process.
	RecordsAppended int64
	BytesAppended   int64

	// Fsyncs counts file syncs; FsyncLatency is the fixed-bucket
	// distribution of their durations (bounded: its size does not grow
	// with the number of fsyncs).
	Fsyncs       int64
	FsyncLatency obs.HistogramSnapshot

	// Segments is the number of live segment files; CurrentSegment is the
	// index appends go to.
	Segments       int
	CurrentSegment uint64

	// RecoveredRecords is the number of valid records found on disk at
	// Open; TornBytesTruncated is how many trailing bytes the torn-tail
	// scan discarded.
	RecoveredRecords   int64
	TornBytesTruncated int64

	// QuarantinedSegments counts segments this Log renamed aside (at Open,
	// or live via Quarantine). RecoveryGaps is
	// the number of missing segment indexes inside the live range at
	// Open — each gap is a span of records that recovery skipped.
	QuarantinedSegments int64
	RecoveryGaps        int
}

// Log is an append-only, CRC-framed, segmented write-ahead log. It is safe
// for concurrent use.
type Log struct {
	opts Options
	fs   FS

	mu      sync.Mutex
	cur     File
	curSeg  uint64
	curSize int64
	segs    []uint64         // live segment indexes, ascending (includes curSeg)
	sizes   map[uint64]int64 // live segment sizes in bytes (curSeg tracks curSize)
	notify  chan struct{}    // closed+replaced on append: wakes WaitFrom
	dirty   bool             // bytes written since the last sync
	closed  bool

	// following is set by OpenFollowing and cleared by EndFollowing (see
	// cursor.go). While it is set cur is nil whenever the tail is not open
	// for append: before the first segment exists, and after a failed write
	// until reopenTailLocked has cut the torn bytes off.
	following bool
	truncated Pos // end of the highest segment TruncateBefore removed

	records     int64
	bytes       int64
	fsyncs      int64
	recovered   int64
	tornBytes   int64
	quarantined int64
	gaps        int
	fsyncLat    *obs.Histogram

	stopFlush chan struct{}
	flushDone chan struct{}
}

// SegmentName returns the file name of segment idx.
func SegmentName(idx uint64) string {
	return fmt.Sprintf("wal-%016x.log", idx)
}

// ParseSegmentName inverts SegmentName, reporting false for file names
// that are not WAL segments.
func ParseSegmentName(name string) (uint64, bool) {
	var idx uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &idx); err != nil {
		return 0, false
	}
	if name != SegmentName(idx) {
		return 0, false
	}
	return idx, true
}

// parseSegmentName is the internal alias of ParseSegmentName.
func parseSegmentName(name string) (uint64, bool) { return ParseSegmentName(name) }

// Open validates the log directory (truncating a torn tail, quarantining
// a corrupt sealed segment), then creates a fresh segment for appends.
func Open(o Options) (*Log, error) {
	l, err := open(o)
	if err != nil {
		return nil, err
	}
	if err := l.createSegmentLocked(l.nextSegmentLocked()); err != nil {
		l.Close() //nolint:errcheck
		return nil, err
	}
	return l, nil
}

// OpenFollowing validates the log directory exactly as Open does, but
// creates no fresh segment: the validated tail is reopened for append and
// the log takes AppendFrames — verbatim frame bytes at stated positions —
// instead of records, so the directory stays a byte prefix of the log it
// follows. An empty directory opens at the zero position. EndFollowing
// does what Open would have done last and turns it into an ordinary log.
func OpenFollowing(o Options) (*Log, error) {
	l, err := open(o)
	if err != nil {
		return nil, err
	}
	l.following = true
	if n := len(l.segs); n > 0 {
		l.curSeg = l.segs[n-1]
		l.curSize = l.sizes[l.curSeg]
	}
	if err := l.reopenTailLocked(); err != nil {
		l.Close() //nolint:errcheck
		return nil, err
	}
	return l, nil
}

// open is the part of opening both roles share: defaults, the one
// validation pass, gap accounting and the group-commit loop.
func open(o Options) (*Log, error) {
	opts := o.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{
		opts:     opts,
		fs:       opts.FS,
		fsyncLat: obs.NewHistogram(nil),
		notify:   make(chan struct{}),
	}

	// Validate every segment up front: quarantine for all but the newest,
	// torn-tail truncation for the newest.
	sc, err := validateDir(opts.FS, opts.Dir, opts.MaxRecordBytes, opts.Logf)
	if err != nil {
		return nil, err
	}
	l.segs, l.sizes = sc.segs, sc.sizes
	l.recovered, l.tornBytes, l.quarantined = sc.records, sc.tornBytes, sc.quarantined
	for i := 1; i < len(l.segs); i++ {
		if missing := int(l.segs[i] - l.segs[i-1] - 1); missing > 0 {
			l.gaps += missing
			opts.Logf("wal: recovery gap: segments %d..%d missing (quarantined or lost)",
				l.segs[i-1]+1, l.segs[i]-1)
		}
	}
	// A gap at the front of the log is invisible to the pairwise scan:
	// detect it through quarantined segment files at or above the
	// checkpoint barrier the MinSegment floor encodes — those records
	// would otherwise have been replayed. Quarantine files below the
	// floor are old decay already healed by a later checkpoint.
	if names, err := opts.FS.ReadDirNames(opts.Dir); err == nil {
		var floor uint64
		if opts.MinSegment > 0 {
			floor = opts.MinSegment - 1
		}
		for _, name := range names {
			if !strings.HasSuffix(name, QuarantineSuffix) {
				continue
			}
			idx, ok := parseSegmentName(strings.TrimSuffix(name, QuarantineSuffix))
			if !ok || idx < floor {
				continue
			}
			if len(l.segs) == 0 || idx < l.segs[0] {
				l.gaps++
				opts.Logf("wal: recovery gap: segment %d quarantined ahead of the live log", idx)
			}
		}
	}
	if opts.Policy == SyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(opts.Clock.NewTimer(opts.Interval))
	}
	return l, nil
}

// nextSegmentLocked is the index a fresh append segment takes: one past
// the newest on disk, floored at MinSegment.
func (l *Log) nextSegmentLocked() uint64 {
	next := uint64(1)
	if n := len(l.segs); n > 0 {
		next = l.segs[n-1] + 1
	}
	if next < l.opts.MinSegment {
		next = l.opts.MinSegment
	}
	return next
}

// ListSegments returns the segment indexes present in dir, ascending.
func ListSegments(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []uint64
	for _, name := range names {
		if idx, ok := parseSegmentName(name); ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// RemoveSegmentsBelow deletes every segment file in dir with an index
// strictly below seg. Recovery uses it to clear segments already covered
// by a checkpoint before Open validates what is left.
func RemoveSegmentsBelow(fs FS, dir string, seg uint64) (removed int, err error) {
	if fs == nil {
		fs = OSFS{}
	}
	segs, err := ListSegments(fs, dir)
	if err != nil {
		return 0, err
	}
	for _, idx := range segs {
		if idx >= seg {
			break
		}
		if err := fs.Remove(filepath.Join(dir, SegmentName(idx))); err != nil {
			return removed, fmt.Errorf("wal: remove obsolete segment: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := fs.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// scanSegment validates one segment image: the header, then every frame
// through nextFrame. Each valid record is handed to each when it is
// non-nil (its Data aliases data). It returns the number of valid records,
// the number of valid bytes, and a non-nil error describing the first
// problem (nil when the whole image is valid).
func scanSegment(data []byte, wantIdx uint64, maxRecord int, each func(Record)) (records, validLen int, err error) {
	if len(data) < headerSize {
		return 0, 0, fmt.Errorf("short header: %d bytes", len(data))
	}
	if string(data[:8]) != segMagic {
		return 0, 0, fmt.Errorf("bad magic %q", data[:8])
	}
	if data[8] != formatVersion {
		return 0, 0, fmt.Errorf("unsupported format version %d", data[8])
	}
	if idx := binary.BigEndian.Uint64(data[9:17]); idx != wantIdx {
		return 0, 0, fmt.Errorf("segment index %d does not match file name (%d)", idx, wantIdx)
	}
	off := headerSize
	for off < len(data) {
		rec, total, ferr := nextFrame(data, off, maxRecord)
		if ferr != nil {
			return records, off, ferr
		}
		if each != nil {
			each(rec)
		}
		records++
		off += total
	}
	return records, off, nil
}

// nextFrame decodes the frame at data[off:] and returns it with its total
// length on disk. It is the only reader of the frame header: every path
// that parses log bytes — recovery, replay, scrub, the replication cursor
// and the replica's stream decoder — goes through these four checks. The
// record's Data aliases data; nothing is copied.
func nextFrame(data []byte, off, maxRecord int) (Record, int, error) {
	rest := data[off:]
	if len(rest) < frameOverhead {
		return Record{}, 0, fmt.Errorf("truncated frame header (%d bytes)", len(rest))
	}
	wantCRC := binary.BigEndian.Uint32(rest[0:4])
	length := binary.BigEndian.Uint32(rest[4:8])
	if int64(length) > int64(maxRecord) {
		return Record{}, 0, fmt.Errorf("frame length %d exceeds limit %d", length, maxRecord)
	}
	total := frameOverhead + int(length)
	if len(rest) < total {
		return Record{}, 0, fmt.Errorf("truncated frame: have %d of %d bytes", len(rest), total)
	}
	if crc := crc32.Checksum(rest[4:total], castagnoli); crc != wantCRC {
		return Record{}, 0, fmt.Errorf("frame CRC mismatch (want %08x, have %08x)", wantCRC, crc)
	}
	return Record{Type: rest[8], Data: rest[frameOverhead:total:total]}, total, nil
}

// EncodeFrame frames one record (exported for tests and tools).
func EncodeFrame(rec Record) []byte {
	buf := make([]byte, frameOverhead+len(rec.Data))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(rec.Data)))
	buf[8] = rec.Type
	copy(buf[frameOverhead:], rec.Data)
	binary.BigEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], castagnoli))
	return buf
}

// createSegmentLocked opens segment idx for appending: header written,
// file synced, directory entry synced. Callers hold l.mu (or are Open).
func (l *Log) createSegmentLocked(idx uint64) error {
	f, err := l.createSegmentFile(idx)
	if err != nil {
		return err
	}
	l.installSegmentLocked(idx, f)
	return nil
}

// createSegmentFile creates segment idx on disk and returns it open at
// its header boundary; the log's tables are untouched. A file whose header
// did not make it is removed, or the next attempt would trip over O_EXCL.
func (l *Log) createSegmentFile(idx uint64) (File, error) {
	path := l.segmentPath(idx)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	_, err = f.Write(SegmentHeader(idx))
	if err == nil && l.opts.Policy != SyncNone {
		if err = f.Sync(); err == nil {
			err = l.fs.SyncDir(l.opts.Dir)
		}
	}
	if err != nil {
		f.Close()
		l.fs.Remove(path) //nolint:errcheck
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	return f, nil
}

// installSegmentLocked makes the freshly created segment idx the one
// appends go to, closing the previous one.
func (l *Log) installSegmentLocked(idx uint64, f File) {
	if l.cur != nil {
		l.cur.Close()
	}
	l.cur = f
	l.curSeg = idx
	l.curSize = headerSize
	l.segs = append(l.segs, idx)
	l.sizes[idx] = headerSize
}

// Append journals one record. Under SyncAlways the record is durable when
// Append returns; under SyncInterval it becomes durable within one
// group-commit interval; under SyncNone whenever the OS flushes.
func (l *Log) Append(rec Record) error {
	if len(rec.Data) > l.opts.MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(rec.Data), l.opts.MaxRecordBytes)
	}
	frame := EncodeFrame(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.following {
		return ErrFollowing
	}
	if l.curSize > headerSize && l.curSize+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.cur.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.curSize += int64(len(frame))
	l.sizes[l.curSeg] = l.curSize
	l.records++
	l.bytes += int64(len(frame))
	l.dirty = true
	l.notifyLocked()
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// syncLocked fsyncs the current segment (a following log whose tail is not
// open holds nothing unsynced). Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.cur == nil {
		return nil
	}
	start := l.opts.Clock.Now()
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncLat.Observe(l.opts.Clock.Since(start))
	l.fsyncs++
	l.dirty = false
	return nil
}

// Sync forces an fsync regardless of policy (shutdown flush).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// rotateLocked syncs and closes the current segment and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	return l.createSegmentLocked(l.curSeg + 1)
}

// sealLocked makes the current segment durable ahead of leaving it.
func (l *Log) sealLocked() error {
	if l.opts.Policy != SyncNone || l.dirty {
		return l.syncLocked()
	}
	return nil
}

// Rotate forces a rotation to a fresh segment and returns its index: every
// record appended before Rotate lives in a segment with a strictly smaller
// index. The checkpointer uses this as its epoch barrier.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.following {
		return 0, ErrFollowing
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	l.notifyLocked() // a reader parked at the sealed end rolls over now
	return l.curSeg, nil
}

// TruncateBefore removes every segment with an index strictly below seg
// (the current segment is never removed). The checkpointer calls it after
// a checkpoint covering those segments is durably installed. The end of
// the highest segment removed is remembered: a reader standing exactly
// there has missed nothing and rolls over to the first live segment (see
// normalizeLocked).
func (l *Log) TruncateBefore(seg uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var (
		kept     []uint64
		removed  int
		firstErr error
	)
	for _, idx := range l.segs {
		if idx < seg && idx != l.curSeg && firstErr == nil {
			if err := l.fs.Remove(l.segmentPath(idx)); err != nil {
				firstErr = fmt.Errorf("wal: truncate: %w", err)
				kept = append(kept, idx)
				continue
			}
			l.truncated = Pos{Segment: idx, Offset: l.sizes[idx]}
			delete(l.sizes, idx)
			removed++
			continue
		}
		kept = append(kept, idx)
	}
	l.segs = kept
	if removed > 0 {
		if err := l.fs.SyncDir(l.opts.Dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Replay streams every record on disk in segments with index >= fromSeg,
// oldest first, to fn (see the package-level Replay). Records appended
// after Replay begins may or may not be included.
func (l *Log) Replay(fromSeg uint64, fn func(seg uint64, rec Record) error) error {
	return Replay(l.fs, l.opts.Dir, fromSeg, l.opts.MaxRecordBytes, fn)
}

// CurrentSegment returns the index appends currently go to.
func (l *Log) CurrentSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curSeg
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		RecordsAppended:     l.records,
		BytesAppended:       l.bytes,
		Fsyncs:              l.fsyncs,
		FsyncLatency:        l.fsyncLat.Snapshot(),
		Segments:            len(l.segs),
		CurrentSegment:      l.curSeg,
		RecoveredRecords:    l.recovered,
		TornBytesTruncated:  l.tornBytes,
		QuarantinedSegments: l.quarantined,
		RecoveryGaps:        l.gaps,
	}
}

// flushLoop is the SyncInterval group-commit goroutine.
func (l *Log) flushLoop(t clock.Timer) {
	defer close(l.flushDone)
	clock.Every(l.opts.Clock, t, l.opts.Interval, l.stopFlush, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !l.closed && l.dirty {
			if err := l.syncLocked(); err != nil {
				l.opts.Logf("wal: group commit: %v", err)
			}
		}
		return true
	})
}

// Clock is the log's time source (Options.Clock).
func (l *Log) Clock() clock.Clock { return l.opts.Clock }

// Close flushes and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.stopFlush != nil {
		close(l.stopFlush)
	}
	var err error
	if l.dirty {
		err = l.syncLocked()
	}
	if l.cur != nil {
		if cerr := l.cur.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: close: %w", cerr)
		}
	}
	l.closed = true
	l.notifyLocked() // wake any WaitFrom so it observes the close
	l.mu.Unlock()
	if l.flushDone != nil {
		<-l.flushDone
	}
	return err
}
