package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTestLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	if opts.Policy == 0 {
		opts.Policy = SyncNone
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := l.Append(Record{Type: 1, Data: []byte(fmt.Sprintf("record-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPosStringParseRoundTrip(t *testing.T) {
	for _, p := range []Pos{{}, {Segment: 1, Offset: 17}, {Segment: 1 << 40, Offset: 123456789}} {
		got, err := ParsePos(p.String())
		if err != nil {
			t.Fatalf("ParsePos(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	for _, bad := range []string{"", "1", "1,", "x,y", "1,-5"} {
		if _, err := ParsePos(bad); err == nil {
			t.Errorf("ParsePos(%q) succeeded, want error", bad)
		}
	}
	if !(Pos{Segment: 1, Offset: 99}).Less(Pos{Segment: 2, Offset: 17}) {
		t.Error("segment ordering broken")
	}
	if !(Pos{Segment: 2, Offset: 17}).Less(Pos{Segment: 2, Offset: 18}) {
		t.Error("offset ordering broken")
	}
}

// ReadFrom must hand back the exact bytes on disk so a mirroring consumer
// stays byte-identical: reading the whole log via the cursor and decoding
// the frames must match Replay, and the raw bytes must match the segment
// files themselves.
func TestReadFromMatchesDiskBytes(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SegmentBytes: 256}) // force several rotations
	appendN(t, l, 0, 50)

	var (
		streamed []Record
		perSeg   = map[uint64]*bytes.Buffer{}
	)
	pos := Pos{}
	for {
		frames, n, start, next, err := l.ReadFrom(pos, 100) // small reads: exercise chunking
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		recs, used := DecodeFrames(frames, 0)
		if used != len(frames) || len(recs) != n {
			t.Fatalf("DecodeFrames used %d of %d bytes, %d of %d records", used, len(frames), len(recs), n)
		}
		streamed = append(streamed, recs...)
		buf := perSeg[start.Segment]
		if buf == nil {
			buf = &bytes.Buffer{}
			perSeg[start.Segment] = buf
		}
		buf.Write(frames)
		pos = next
	}
	if len(streamed) != 50 {
		t.Fatalf("streamed %d records, want 50", len(streamed))
	}

	var replayed []Record
	if err := l.Replay(0, func(seg uint64, rec Record) error {
		replayed = append(replayed, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(streamed) {
		t.Fatalf("replay found %d records, cursor streamed %d", len(replayed), len(streamed))
	}
	for i := range replayed {
		if replayed[i].Type != streamed[i].Type || !bytes.Equal(replayed[i].Data, streamed[i].Data) {
			t.Fatalf("record %d differs between Replay and cursor", i)
		}
	}

	// Byte-identity: header + streamed frames must equal the file bytes.
	for seg, buf := range perSeg {
		disk, err := os.ReadFile(filepath.Join(dir, SegmentName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		want := append(SegmentHeader(seg), buf.Bytes()...)
		if !bytes.Equal(disk, want) {
			t.Errorf("segment %d: mirrored bytes differ from disk (%d vs %d bytes)", seg, len(want), len(disk))
		}
	}
	if pos != l.End() {
		t.Errorf("cursor stopped at %v, End() = %v", pos, l.End())
	}
}

func TestReadFromCaughtUpAndCount(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 7)

	n, err := l.CountFrom(Pos{})
	if err != nil || n != 7 {
		t.Fatalf("CountFrom(zero) = %d, %v; want 7, nil", n, err)
	}
	end := l.End()
	if n, err := l.CountFrom(end); err != nil || n != 0 {
		t.Fatalf("CountFrom(end) = %d, %v; want 0, nil", n, err)
	}
	frames, cnt, _, next, err := l.ReadFrom(end, 0)
	if err != nil || cnt != 0 || len(frames) != 0 || next != end {
		t.Fatalf("ReadFrom(end) = %d bytes, %d recs, next=%v, err=%v", len(frames), cnt, next, err)
	}
}

func TestReadFromRollsOverSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	endOfFirst := l.End()
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)

	// Reading from the sealed segment's end must roll into the next one.
	frames, n, start, _, err := l.ReadFrom(endOfFirst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rollover read %d records, want 2", n)
	}
	if start.Segment != endOfFirst.Segment+1 || start.Offset != HeaderSize {
		t.Fatalf("rollover start = %v, want {%d,%d}", start, endOfFirst.Segment+1, HeaderSize)
	}
	recs, _ := DecodeFrames(frames, 0)
	if string(recs[0].Data) != "record-0003" {
		t.Fatalf("rollover first record = %q", recs[0].Data)
	}
}

func TestReadFromPositionGone(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	barrier, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(barrier); err != nil {
		t.Fatal(err)
	}
	// Below the truncation floor.
	if _, _, _, _, err := l.ReadFrom(Pos{Segment: 1, Offset: HeaderSize}, 0); !errors.Is(err, ErrPositionGone) {
		t.Errorf("truncated position: err = %v, want ErrPositionGone", err)
	}
	// Beyond the end (diverged reader).
	end := l.End()
	for _, ahead := range []Pos{
		{Segment: end.Segment, Offset: end.Offset + 9},
		{Segment: end.Segment + 5, Offset: HeaderSize},
	} {
		if _, _, _, _, err := l.ReadFrom(ahead, 0); !errors.Is(err, ErrPositionGone) {
			t.Errorf("ahead position %v: err = %v, want ErrPositionGone", ahead, err)
		}
	}
}

func TestWaitFromWakesOnAppend(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	end := l.End()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- l.WaitFrom(ctx, end)
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block
	appendN(t, l, 0, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitFrom = %v, want nil after append", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFrom did not wake on append")
	}

	// Data already present: returns immediately.
	if err := l.WaitFrom(context.Background(), Pos{}); err != nil {
		t.Fatalf("WaitFrom with data available = %v", err)
	}

	// Context cancellation unblocks.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := l.WaitFrom(ctx, l.End()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitFrom after deadline = %v", err)
	}
}

// A reader parked at the end of the segment Rotate seals has a new
// position — the next segment's header boundary — and must be told at
// once, not when its long-poll expires.
func TestWaitFromWakesOnRotate(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	end := l.End()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		done <- l.WaitFrom(ctx, end)
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block
	rotated := time.Now()
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if waited := time.Since(rotated); err != nil || waited > 100*time.Millisecond {
		t.Fatalf("WaitFrom(%v) across Rotate = %v after %v, want nil within 100ms", end, err, waited)
	}
	if _, n, start, _, err := l.ReadFrom(end, 0); err != nil || n != 0 || start != l.End() {
		t.Fatalf("ReadFrom(%v) after Rotate = %d recs from %v, %v; want 0 from %v", end, n, start, err, l.End())
	}
}

func TestWaitFromWakesOnClose(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	done := make(chan error, 1)
	go func() { done <- l.WaitFrom(context.Background(), l.End()) }()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitFrom after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFrom did not wake on Close")
	}
}

// The package-level Replay is the one directory walk: it must visit
// exactly the records the cursor streams, in order, with their segment
// indexes; start at the first live segment at or above fromSeg (also when
// fromSeg itself is gone); end quietly at a torn tail in the newest
// segment; and refuse a corrupt older segment before handing out any of
// its records.
func TestReplayWalksDirectory(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 0, 40)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(OSFS{}, dir)
	if err != nil || len(segs) < 4 || segs[2] == l.End().Segment {
		t.Fatalf("want >= 4 segments, have %v (err %v)", segs, err)
	}

	type visit struct {
		seg  uint64
		data string
	}
	walk := func(fromSeg uint64) ([]visit, error) {
		var out []visit
		err := Replay(nil, dir, fromSeg, 0, func(seg uint64, rec Record) error {
			out = append(out, visit{seg, string(rec.Data)})
			return nil
		})
		return out, err
	}
	all, err := walk(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 40 {
		t.Fatalf("Replay found %d records, want 40", len(all))
	}
	for i, v := range all {
		if want := fmt.Sprintf("record-%04d", i); v.data != want {
			t.Fatalf("record %d = %q, want %q", i, v.data, want)
		}
		if i > 0 && v.seg < all[i-1].seg {
			t.Fatalf("record %d went back from segment %d to %d", i, all[i-1].seg, v.seg)
		}
	}

	// Resume from a segment boundary; a vanished fromSeg starts above it.
	firstIn := func(seg uint64) int {
		for i, v := range all {
			if v.seg >= seg {
				return i
			}
		}
		return len(all)
	}
	if err := os.Remove(filepath.Join(dir, SegmentName(segs[1]))); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{segs[1], segs[2]} {
		got, err := walk(from)
		if err != nil {
			t.Fatal(err)
		}
		want := all[firstIn(segs[2]):]
		if len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("Replay from %d: %d records starting %v, want %d starting %v", from, len(got), got[0], len(want), want[0])
		}
	}

	// A callback error stops the walk and comes back unchanged.
	stop := errors.New("stop")
	n := 0
	if err := Replay(nil, dir, 0, 0, func(uint64, Record) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("callback error: Replay = %v after %d records, want the callback's error after 1", err, n)
	}

	// Torn tail in the newest segment: the walk ends at the last valid
	// record without error.
	l.Close()
	newest := filepath.Join(dir, SegmentName(l.End().Segment))
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(EncodeFrame(Record{Type: 1, Data: []byte("torn")})[:7]) //nolint:errcheck
	f.Close()
	got, err := walk(segs[2])
	if err != nil || len(got) != len(all)-firstIn(segs[2]) {
		t.Fatalf("Replay over a torn tail = %d records, %v", len(got), err)
	}

	// Corruption in an older segment: *CorruptError at the bad frame, and
	// none of that segment's records were handed out.
	older := filepath.Join(dir, SegmentName(segs[2]))
	data, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	_, first, _ := nextFrame(data, HeaderSize, DefaultMaxRecordBytes)
	data[HeaderSize+first+FrameOverhead] ^= 0xff // second frame's payload
	if err := os.WriteFile(older, data, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err = walk(segs[2])
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) || corrupt.Path != older || corrupt.Offset != int64(HeaderSize+first) {
		t.Fatalf("Replay over mid-log corruption = %v, want *CorruptError at %s byte %d", err, older, HeaderSize+first)
	}
	if len(got) != 0 {
		t.Fatalf("Replay handed out %d records of a corrupt sealed segment", len(got))
	}
}

// OpenFollowing performs Open's validation without creating an append
// segment: a torn tail is truncated and End lands exactly at the last
// valid byte, so a restarting standby resumes streaming from there.
func TestOpenFollowingTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	end := l.End()
	seg := end.Segment
	l.Close()

	path := filepath.Join(dir, SegmentName(seg))
	// Append garbage: a torn half-written frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fl, err := OpenFollowing(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.End() != end {
		t.Errorf("OpenFollowing End = %v, want %v", fl.End(), end)
	}
	st := fl.Stats()
	if st.RecoveredRecords != 5 {
		t.Errorf("OpenFollowing RecoveredRecords = %d, want 5", st.RecoveredRecords)
	}
	if st.TornBytesTruncated != 6 {
		t.Errorf("OpenFollowing TornBytesTruncated = %d, want 6", st.TornBytesTruncated)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != end.Offset {
		t.Errorf("segment size after OpenFollowing = %d, want %d", fi.Size(), end.Offset)
	}
	// And unlike Open, no fresh append segment appears.
	segs, err := ListSegments(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != st.Segments {
		t.Errorf("OpenFollowing created segments: %v on disk, %d live", segs, st.Segments)
	}
}

// OpenFollowing on an empty or missing directory reports a zero End,
// telling the standby it must bootstrap from a snapshot.
func TestOpenFollowingEmpty(t *testing.T) {
	l, err := OpenFollowing(Options{Dir: filepath.Join(t.TempDir(), "nope")})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); !l.End().IsZero() || st.RecoveredRecords != 0 || st.Segments != 0 {
		t.Errorf("OpenFollowing on missing dir: End %v, stats %+v, want zero", l.End(), st)
	}
}

// Mid-log corruption stays fatal for OpenFollowing, same as Open.
func TestOpenFollowingMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	first := l.End().Segment
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte in the middle of the first (now older) segment.
	path := filepath.Join(dir, SegmentName(first))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[HeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var corrupt *CorruptError
	if _, err := OpenFollowing(Options{Dir: dir}); !errors.As(err, &corrupt) {
		t.Fatalf("OpenFollowing over mid-log corruption = %v, want *CorruptError", err)
	}
}

// Directory validation (the pass Open and OpenFollowing share) counts records
// without materialising them: its allocations must not grow with the
// number of records in a segment.
func TestValidationDoesNotAllocatePerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(records int) float64 {
		dir := t.TempDir()
		l := openTestLog(t, dir, Options{})
		appendN(t, l, 0, records)
		l.Close()
		return testing.AllocsPerRun(5, func() {
			l, err := OpenFollowing(Options{Dir: dir})
			if err != nil || l.Stats().RecoveredRecords != int64(records) {
				t.Fatalf("OpenFollowing = %v; want %d records", err, records)
			}
			l.Close()
		})
	}
	if few, many := allocs(10), allocs(5000); many > few+2 {
		t.Errorf("validating 5000 records allocates %v times, 10 records %v: validation allocates per record", many, few)
	}
}
