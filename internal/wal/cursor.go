// Cursor support: exported positions into the log, frame-granular tail
// reads, change notification, and the following role. This is the
// substrate of WAL-shipping replication (internal/replication): a primary
// serves raw frame bytes from ReadFrom and WaitFrom gives its stream
// endpoint a long-poll wakeup without busy-reading segment files; a
// standby's log is opened with OpenFollowing and fed those bytes verbatim
// through AppendFrames, so its directory stays a byte-identical prefix of
// the primary's, until EndFollowing makes it an ordinary log.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Exported framing constants for consumers that ship or mirror raw
// segment bytes.
const (
	// HeaderSize is the length of a segment file header.
	HeaderSize = headerSize

	// FrameOverhead is the length of one frame header (CRC + length +
	// type) preceding the payload.
	FrameOverhead = frameOverhead
)

// ErrPositionGone reports a read position that the log can no longer
// serve: either the segments below it were truncated away by a
// checkpoint (the reader must re-bootstrap from a snapshot), or the
// position lies beyond the log's end (the reader has diverged — e.g. it
// mirrored bytes a crashed primary lost to torn-tail truncation).
var ErrPositionGone = errors.New("wal: position gone")

// ErrDiverged reports frames offered to a following log at a position that
// is neither its end nor the header boundary of a later segment: the local
// bytes are no longer a prefix of the log being followed, and the follower
// must discard them and start again from a snapshot.
var ErrDiverged = errors.New("wal: following log diverged")

// Pos addresses a byte offset within a segment of the log. The zero Pos
// means "from the very beginning". Offsets always point at a frame
// boundary (or a segment end); the first valid offset in any segment is
// HeaderSize.
type Pos struct {
	Segment uint64
	Offset  int64
}

// String renders the position as "<segment>,<offset>" — the wire form
// used by the replication stream's from= parameter.
func (p Pos) String() string { return fmt.Sprintf("%d,%d", p.Segment, p.Offset) }

// ParsePos inverts Pos.String.
func ParsePos(s string) (Pos, error) {
	var p Pos
	if _, err := fmt.Sscanf(s, "%d,%d", &p.Segment, &p.Offset); err != nil {
		return Pos{}, fmt.Errorf("wal: bad position %q (want \"segment,offset\"): %w", s, err)
	}
	if p.Offset < 0 {
		return Pos{}, fmt.Errorf("wal: bad position %q: negative offset", s)
	}
	return p, nil
}

// IsZero reports whether p is the zero position.
func (p Pos) IsZero() bool { return p == Pos{} }

// Less orders positions lexicographically by (segment, offset).
func (p Pos) Less(q Pos) bool {
	if p.Segment != q.Segment {
		return p.Segment < q.Segment
	}
	return p.Offset < q.Offset
}

// SegmentHeader returns the canonical 17-byte header of segment idx.
func SegmentHeader(idx uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, segMagic)
	hdr[8] = formatVersion
	binary.BigEndian.PutUint64(hdr[9:17], idx)
	return hdr
}

// DecodeFrames parses a buffer of concatenated frames (the byte form
// produced by Log.ReadFrom and shipped over the replication stream). It
// returns the decoded records — their Data aliases data — and the number
// of bytes consumed. A trailing partial or corrupt frame stops the scan
// without error: consumers on unreliable transports apply the valid prefix
// and re-fetch the rest. maxRecord <= 0 means DefaultMaxRecordBytes.
func DecodeFrames(data []byte, maxRecord int) ([]Record, int) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	var recs []Record
	off := 0
	for off < len(data) {
		rec, total, err := nextFrame(data, off, maxRecord)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += total
	}
	return recs, off
}

// End returns the position one past the last appended byte — where the
// next record will land.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Segment: l.curSeg, Offset: l.curSize}
}

// normalizeLocked canonicalises p against the live segment set: the zero
// position becomes the start of the oldest segment, sub-header offsets
// snap to HeaderSize, and positions at the end of a sealed segment — or of
// the highest segment TruncateBefore removed — roll over to the start of
// the next. It reports ok=false when the position
// cannot be served, with ahead=true when it lies beyond the log end
// (divergence) as opposed to below its truncation floor.
func (l *Log) normalizeLocked(p Pos) (_ Pos, ok, ahead bool) {
	if p.IsZero() {
		if len(l.segs) == 0 {
			return p, false, false
		}
		p = Pos{Segment: l.segs[0], Offset: headerSize}
	}
	if p.Offset < headerSize {
		p.Offset = headerSize
	}
	for {
		if p.Segment == l.curSeg {
			if p.Offset > l.curSize {
				return p, false, true
			}
			return p, true, false
		}
		sz, live := l.sizes[p.Segment]
		if !live {
			// Exactly the end of the segment the last checkpoint truncated:
			// the reader holds everything below the live log.
			if next, found := l.nextLiveLocked(p.Segment); found && p == l.truncated {
				p = Pos{Segment: next, Offset: headerSize}
				continue
			}
			return p, false, p.Segment > l.curSeg
		}
		if p.Offset > sz {
			return p, false, true
		}
		if p.Offset == sz {
			// Rollover: the next live segment (usually +1, but MinSegment
			// recovery floors can leave index gaps).
			next, found := l.nextLiveLocked(p.Segment)
			if !found {
				return p, false, true
			}
			p = Pos{Segment: next, Offset: headerSize}
			continue
		}
		return p, true, false
	}
}

// nextLiveLocked returns the smallest live segment index strictly above
// seg.
func (l *Log) nextLiveLocked(seg uint64) (uint64, bool) {
	for _, idx := range l.segs {
		if idx > seg {
			return idx, true
		}
	}
	return 0, false
}

// positionErr renders a normalizeLocked failure as an ErrPositionGone.
func positionErr(p Pos, ahead bool) error {
	if ahead {
		return fmt.Errorf("%w: position %s is beyond the log end", ErrPositionGone, p)
	}
	return fmt.Errorf("%w: position %s was truncated below the checkpoint floor", ErrPositionGone, p)
}

// ReadFrom returns up to maxBytes of raw, CRC-framed record bytes
// starting at position from, never crossing a segment boundary. It
// reports the number of whole records in the returned bytes, the
// normalised position the bytes actually start at (which may differ from
// the request when it rolls over a sealed segment's end), and the
// position immediately after them. A caught-up reader gets (nil, 0,
// end, end, nil). maxBytes <= 0 means 1 MiB; the first record is always
// included whole even when it alone exceeds maxBytes.
func (l *Log) ReadFrom(from Pos, maxBytes int) (frames []byte, n int, start, next Pos, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, from, from, ErrClosed
	}
	p, ok, ahead := l.normalizeLocked(from)
	if !ok {
		l.mu.Unlock()
		return nil, 0, from, from, positionErr(p, ahead)
	}
	limit := l.sizes[p.Segment]
	if p.Segment == l.curSeg {
		limit = l.curSize
	}
	dir, maxRecord := l.opts.Dir, l.opts.MaxRecordBytes
	l.mu.Unlock()

	if p.Offset == limit {
		// normalizeLocked only leaves a position at a segment end when
		// that segment is the current one: caught up.
		return nil, 0, p, p, nil
	}
	path := filepath.Join(dir, SegmentName(p.Segment))
	data, err := l.fs.ReadFile(path)
	if err != nil {
		// A TruncateBefore between the unlock and the read removes the
		// segment: the position is gone, not the read failed.
		l.mu.Lock()
		_, live := l.sizes[p.Segment]
		l.mu.Unlock()
		if !live {
			return nil, 0, p, p, positionErr(p, false)
		}
		return nil, 0, p, p, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if int64(len(data)) > limit {
		// The current segment grew after we snapshotted curSize; serve
		// only the bytes the snapshot covers so callers see a stable
		// prefix.
		data = data[:limit]
	}
	if int64(len(data)) < limit {
		return nil, 0, p, p, fmt.Errorf("wal: read %s: %d bytes on disk, expected %d", path, len(data), limit)
	}
	// Walk whole frames up to maxBytes, always admitting the first.
	off := int(p.Offset)
	for off < len(data) {
		_, total, ferr := nextFrame(data, off, maxRecord)
		if ferr != nil {
			return nil, 0, p, p, &CorruptError{Path: path, Offset: int64(off), Reason: ferr.Error()}
		}
		if n > 0 && off-int(p.Offset)+total > maxBytes {
			break
		}
		off += total
		n++
	}
	out := append([]byte(nil), data[p.Offset:off]...)
	return out, n, p, Pos{Segment: p.Segment, Offset: int64(off)}, nil
}

// WaitFrom blocks until the log holds records at or after position from,
// from rolls over onto a later segment (a Rotate sealed the one it ends),
// the context is done, or the log is closed. It returns nil when data or a
// new position is available, the context error on cancellation, ErrClosed
// after Close, and ErrPositionGone when the position can no longer be
// served.
func (l *Log) WaitFrom(ctx context.Context, from Pos) error {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		p, ok, ahead := l.normalizeLocked(from)
		if !ok {
			l.mu.Unlock()
			return positionErr(p, ahead)
		}
		if p.Segment != l.curSeg || p.Offset < l.curSize || p.Segment != from.Segment {
			l.mu.Unlock()
			return nil
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// CountFrom counts the records at or after position from — the primary's
// measure of a replica's lag. The caught-up fast path costs one mutex
// acquisition and no I/O.
func (l *Log) CountFrom(from Pos) (int64, error) {
	var total int64
	pos := from
	for {
		_, n, _, next, err := l.ReadFrom(pos, 1<<20)
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
		total += int64(n)
		pos = next
	}
}

// BytesFrom returns how many framed record bytes lie at or after
// position from — the primary's byte-granularity measure of a replica's
// lag. Per-segment file headers are not counted (they are not payload
// the replica is missing). Unlike CountFrom it costs one mutex
// acquisition and no I/O: the live segment size table already holds
// every number needed.
func (l *Log) BytesFrom(from Pos) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	p, ok, ahead := l.normalizeLocked(from)
	if !ok {
		return 0, positionErr(p, ahead)
	}
	var total int64
	for _, idx := range l.segs {
		if idx < p.Segment {
			continue
		}
		sz := l.sizes[idx]
		if idx == l.curSeg {
			sz = l.curSize
		}
		start := int64(headerSize)
		if idx == p.Segment {
			start = p.Offset
		}
		if sz > start {
			total += sz - start
		}
	}
	return total, nil
}

// notifyLocked wakes every WaitFrom blocked on the previous notify
// channel. Callers hold l.mu.
func (l *Log) notifyLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// AppendFrames writes the valid prefix of frames — concatenated frame
// bytes as ReadFrom serves them — verbatim at position at of a following
// log, and returns the records it holds (their Data aliases frames) with
// the position just past them. at must be the log's End, or the header
// boundary of a later segment: the current segment is then sealed and the
// later one created with its canonical header. Anything else is
// ErrDiverged. The bytes are fsynced before AppendFrames returns unless
// the policy is SyncNone, so a caller that applies the records afterwards
// never holds an effect the log could lose. A failed write leaves End
// where it was; the torn bytes are cut off before the next append.
func (l *Log) AppendFrames(at Pos, frames []byte) ([]Record, Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, Pos{}, ErrClosed
	}
	if !l.following {
		return nil, Pos{}, fmt.Errorf("wal: AppendFrames on a log that is not following")
	}
	end := Pos{Segment: l.curSeg, Offset: l.curSize}
	roll := at.Segment > l.curSeg && at.Offset == headerSize
	if at != end && !roll {
		return nil, Pos{}, fmt.Errorf("%w: frames offered at %s, local end %s", ErrDiverged, at, end)
	}
	if err := l.reopenTailLocked(); err != nil {
		return nil, Pos{}, err
	}
	if roll {
		if err := l.sealLocked(); err != nil {
			return nil, Pos{}, err
		}
		if err := l.createSegmentLocked(at.Segment); err != nil {
			return nil, Pos{}, err
		}
	}
	recs, used := DecodeFrames(frames, l.opts.MaxRecordBytes)
	if used == 0 {
		return nil, at, nil
	}
	l.dirty = true
	_, err := l.cur.Write(frames[:used])
	if err == nil && l.opts.Policy != SyncNone {
		err = l.syncLocked()
	}
	if err != nil {
		l.cur.Close()
		l.cur = nil
		return nil, Pos{}, fmt.Errorf("wal: append frames: %w", err)
	}
	l.curSize += int64(used)
	l.sizes[l.curSeg] = l.curSize
	l.records += int64(len(recs))
	l.bytes += int64(used)
	l.notifyLocked()
	return recs, Pos{Segment: l.curSeg, Offset: l.curSize}, nil
}

// reopenTailLocked opens the newest segment of a following log for append
// at curSize, cutting off whatever a failed write left beyond it. It is a
// no-op while the tail is open or no segment exists yet.
func (l *Log) reopenTailLocked() error {
	if l.cur != nil || l.curSeg == 0 {
		return nil
	}
	path := l.segmentPath(l.curSeg)
	if err := l.fs.Truncate(path, l.curSize); err != nil {
		return fmt.Errorf("wal: reopen tail: %w", err)
	}
	// O_APPEND matters for the real filesystem; in-memory ones append from
	// the end regardless.
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("wal: reopen tail: %w", err)
	}
	l.cur = f
	return nil
}

// Reset empties a following log — every segment file removed, End back at
// the zero position — ahead of a fresh snapshot.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.following {
		return fmt.Errorf("wal: Reset on a log that is not following")
	}
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	for len(l.segs) > 0 {
		if err := l.fs.Remove(l.segmentPath(l.segs[0])); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: reset: %w", err)
		}
		delete(l.sizes, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.curSeg, l.curSize, l.dirty = 0, 0, false
	return l.fs.SyncDir(l.opts.Dir)
}

// EndFollowing turns a following log into an ordinary one by doing what
// Open does last: the tail is sealed and a fresh segment above it created.
// commit runs once that segment exists and before the log switches to it;
// if creating the segment or commit fails the log is still following with
// its tail untouched. On a log that is not following only commit runs.
func (l *Log) EndFollowing(commit func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.following {
		return commit()
	}
	if err := l.reopenTailLocked(); err != nil {
		return err
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	next := l.nextSegmentLocked()
	f, err := l.createSegmentFile(next)
	if err != nil {
		return err
	}
	if err := commit(); err != nil {
		f.Close()
		if rerr := l.fs.Remove(l.segmentPath(next)); rerr != nil {
			l.opts.Logf("wal: removing unused segment %d: %v", next, rerr)
		}
		return err
	}
	l.installSegmentLocked(next, f)
	l.following = false
	return nil
}
