package wal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// leader is a primary-side log whose frames the tests below feed to a
// following one, the way the replication stream does.
func leader(t *testing.T, fs wal.FS, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// ship copies everything the leader holds past the follower's end into the
// follower, one ReadFrom batch at a time.
func ship(t *testing.T, from, to *wal.Log) {
	t.Helper()
	for {
		frames, n, start, _, err := from.ReadFrom(to.End(), 0)
		if err != nil {
			t.Fatalf("ReadFrom(%v): %v", to.End(), err)
		}
		if n == 0 {
			if start != to.End() { // rolled over a sealed boundary
				if _, _, err := to.AppendFrames(start, nil); err != nil {
					t.Fatalf("AppendFrames(%v, nil): %v", start, err)
				}
				continue
			}
			return
		}
		recs, _, err := to.AppendFrames(start, frames)
		if err != nil {
			t.Fatalf("AppendFrames(%v): %v", start, err)
		}
		if len(recs) != n {
			t.Fatalf("AppendFrames decoded %d records of a %d-record batch", len(recs), n)
		}
	}
}

// sameSegments asserts every segment in followerDir is byte-identical to a
// prefix of the leader's file of the same name.
func sameSegments(t *testing.T, leaderDir, followerDir string) {
	t.Helper()
	segs, err := wal.ListSegments(wal.OSFS{}, followerDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("follower segments = %v, %v", segs, err)
	}
	for _, idx := range segs {
		got, err := os.ReadFile(filepath.Join(followerDir, wal.SegmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(leaderDir, wal.SegmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > len(want) || !bytes.Equal(got, want[:len(got)]) {
			t.Errorf("segment %d: follower's %d bytes are not a prefix of the leader's %d", idx, len(got), len(want))
		}
	}
}

// A following log takes verbatim frames at its end or at the header of a
// later segment, stays byte-identical to the log it follows across
// rotations and a reopen, refuses record appends, and EndFollowing turns
// it into an ordinary log one segment above the followed prefix.
func TestFollowingLogMirrorsLeader(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	l := leader(t, nil, ldir)
	f, err := wal.OpenFollowing(wal.Options{Dir: fdir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if err := l.Append(rec(byte(i+1), "payload-payload")); err != nil {
				t.Fatal(err)
			}
		}
		ship(t, l, f)
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	ship(t, l, f)
	if f.End() != l.End() {
		t.Fatalf("follower end %v, leader end %v", f.End(), l.End())
	}
	sameSegments(t, ldir, fdir)
	if st := f.Stats(); st.RecordsAppended != 12 || st.Segments != 4 {
		t.Errorf("follower stats = %+v, want 12 records in 4 segments", st)
	}

	if err := f.Append(rec(1, "x")); !errors.Is(err, wal.ErrFollowing) {
		t.Errorf("Append while following = %v, want ErrFollowing", err)
	}
	if _, err := f.Rotate(); !errors.Is(err, wal.ErrFollowing) {
		t.Errorf("Rotate while following = %v, want ErrFollowing", err)
	}

	// Reopen: the validated tail is reopened for append, nothing created.
	end := f.End()
	f.Close()
	f, err = wal.OpenFollowing(wal.Options{Dir: fdir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.End() != end {
		t.Fatalf("reopened follower end %v, want %v", f.End(), end)
	}
	if err := l.Append(rec(7, "after-reopen")); err != nil {
		t.Fatal(err)
	}
	ship(t, l, f)
	sameSegments(t, ldir, fdir)
	if got := len(collect(t, f, 0)); got != 13 {
		t.Errorf("follower replays %d records, want 13", got)
	}

	// A failed commit leaves it following, with no stray segment.
	boom := errors.New("term not persisted")
	if err := f.EndFollowing(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("EndFollowing(failing commit) = %v", err)
	}
	if err := f.Append(rec(1, "x")); !errors.Is(err, wal.ErrFollowing) {
		t.Errorf("Append after a failed EndFollowing = %v, want ErrFollowing", err)
	}
	if segs, _ := wal.ListSegments(wal.OSFS{}, fdir); len(segs) != 4 {
		t.Errorf("failed EndFollowing left segments %v", segs)
	}
	if err := l.Append(rec(7, "still-following")); err != nil {
		t.Fatal(err)
	}
	ship(t, l, f)

	// Success: record appends land in a fresh segment above the prefix.
	if err := f.EndFollowing(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if want := (wal.Pos{Segment: l.End().Segment + 1, Offset: wal.HeaderSize}); f.End() != want {
		t.Errorf("end after EndFollowing = %v, want %v", f.End(), want)
	}
	if err := f.Append(rec(9, "own-write")); err != nil {
		t.Fatalf("Append after EndFollowing: %v", err)
	}
	if _, _, err := f.AppendFrames(f.End(), nil); err == nil {
		t.Error("AppendFrames accepted on a log that stopped following")
	}
}

// Frames offered anywhere but the end or a later header are a typed
// divergence; a torn batch lands only its valid prefix.
func TestAppendFramesPositions(t *testing.T) {
	dir := t.TempDir()
	f, err := wal.OpenFollowing(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	one := wal.EncodeFrame(rec(1, "alpha"))
	two := append(append([]byte(nil), one...), wal.EncodeFrame(rec(2, "bravo"))...)

	// The first segment is whichever the stream starts in.
	start := wal.Pos{Segment: 5, Offset: wal.HeaderSize}
	recs, next, err := f.AppendFrames(start, append(two[:len(two):len(two)], 0xde, 0xad, 0xbe))
	if err != nil || len(recs) != 2 {
		t.Fatalf("AppendFrames = %d records, %v", len(recs), err)
	}
	if want := (wal.Pos{Segment: 5, Offset: wal.HeaderSize + int64(len(two))}); next != want || f.End() != want {
		t.Fatalf("next = %v, end = %v, want %v (torn tail not written)", next, f.End(), want)
	}

	for _, at := range []wal.Pos{
		{Segment: 5, Offset: wal.HeaderSize},     // behind the end
		{Segment: 5, Offset: next.Offset + 9},    // beyond it
		{Segment: 4, Offset: wal.HeaderSize},     // an earlier segment
		{Segment: 6, Offset: wal.HeaderSize + 1}, // a later segment, not at its header
		{},                                       // the zero position
	} {
		if _, _, err := f.AppendFrames(at, one); !errors.Is(err, wal.ErrDiverged) {
			t.Errorf("AppendFrames(%v) = %v, want ErrDiverged", at, err)
		}
	}
	if f.End() != next {
		t.Errorf("rejected appends moved the end to %v", f.End())
	}
	// A later header seals the current segment; index gaps are the
	// leader's to decide.
	if _, got, err := f.AppendFrames(wal.Pos{Segment: 8, Offset: wal.HeaderSize}, one); err != nil ||
		got != (wal.Pos{Segment: 8, Offset: wal.HeaderSize + int64(len(one))}) {
		t.Errorf("roll to segment 8 = %v, %v", got, err)
	}
	if sealed := f.SealedSegments(); len(sealed) != 1 || sealed[0] != 5 {
		t.Errorf("sealed segments = %v, want [5]", sealed)
	}
}

// A write that fails part-way leaves the end where it was; the torn bytes
// are cut off before the next append, so the segment stays a clean prefix.
func TestAppendFramesRepairsFailedWrite(t *testing.T) {
	fs := faultinject.NewMemFS(1)
	f, err := wal.OpenFollowing(wal.Options{Dir: "/f", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := wal.EncodeFrame(rec(1, "0123456789abcdef"))
	_, end, err := f.AppendFrames(wal.Pos{Segment: 1, Offset: wal.HeaderSize}, frame)
	if err != nil {
		t.Fatal(err)
	}

	fs.FailWritesAfter(5)
	if _, _, err := f.AppendFrames(end, frame); !errors.Is(err, syscall.EIO) {
		t.Fatalf("AppendFrames on a dying disk = %v, want EIO", err)
	}
	path := filepath.Join("/f", wal.SegmentName(1))
	if n, _ := fs.Size(path); n != end.Offset+5 {
		t.Fatalf("torn write left %d bytes, want %d", n, end.Offset+5)
	}
	if f.End() != end {
		t.Fatalf("failed write moved the end to %v", f.End())
	}
	if _, _, err := f.AppendFrames(end, frame); !errors.Is(err, syscall.EIO) {
		t.Fatalf("AppendFrames while the disk is still dead = %v, want EIO", err)
	}

	fs.ClearWriteError()
	if _, next, err := f.AppendFrames(end, frame); err != nil || next.Offset != end.Offset+int64(len(frame)) {
		t.Fatalf("AppendFrames after the disk healed = %v, %v", next, err)
	}
	if n, validLen, err := wal.VerifySegmentFile(fs, "/f", 1, 0); err != nil || n != 2 || validLen != f.End().Offset {
		t.Errorf("segment after repair: %d records, %d bytes, %v", n, validLen, err)
	}
}

// A reader standing exactly at the end of the segment a checkpoint just
// truncated has missed nothing and rolls over to the first live segment;
// anywhere else in or below the truncated range is still gone.
func TestReadFromEndOfTruncatedSegment(t *testing.T) {
	l := leader(t, nil, t.TempDir())
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(1, "first-segment")); err != nil {
			t.Fatal(err)
		}
	}
	earlier := l.End() // end of segment 1
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2, "second-segment")); err != nil {
		t.Fatal(err)
	}
	parked := l.End() // a lag-0 reader waits here
	barrier, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(barrier); err != nil {
		t.Fatal(err)
	}
	live := wal.Pos{Segment: barrier, Offset: wal.HeaderSize}

	for _, tc := range []struct {
		name string
		from wal.Pos
		gone bool
	}{
		{"end of the truncated segment", parked, false},
		{"inside it", wal.Pos{Segment: parked.Segment, Offset: wal.HeaderSize}, true},
		{"end of an earlier removed segment", earlier, true},
		{"below it", wal.Pos{Segment: earlier.Segment, Offset: wal.HeaderSize}, true},
		{"beyond its end", wal.Pos{Segment: parked.Segment, Offset: parked.Offset + 1}, true},
	} {
		_, n, start, _, err := l.ReadFrom(tc.from, 0)
		if tc.gone {
			if !errors.Is(err, wal.ErrPositionGone) {
				t.Errorf("%s (%v): err = %v, want ErrPositionGone", tc.name, tc.from, err)
			}
			continue
		}
		if err != nil || n != 0 || start != live {
			t.Errorf("%s (%v): %d records from %v, %v; want caught up at %v", tc.name, tc.from, n, start, err, live)
		}
		if lag, err := l.BytesFrom(tc.from); err != nil || lag != 0 {
			t.Errorf("%s: BytesFrom = %d, %v", tc.name, lag, err)
		}
	}

	// Records appended after the truncation are served from the rollover.
	if err := l.Append(rec(3, "third-segment")); err != nil {
		t.Fatal(err)
	}
	if _, n, start, _, err := l.ReadFrom(parked, 0); err != nil || n != 1 || start != live {
		t.Errorf("ReadFrom(%v) after an append = %d records from %v, %v", parked, n, start, err)
	}
}

// A segment whose header could not be written is not left behind to trip
// the next attempt over O_EXCL: once there is room the same roll succeeds.
func TestRollRetriesAfterFailedHeader(t *testing.T) {
	fs := faultinject.NewMemFS(1)
	f, err := wal.OpenFollowing(wal.Options{Dir: "/f", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := wal.EncodeFrame(rec(1, "payload"))
	if _, _, err := f.AppendFrames(wal.Pos{Segment: 1, Offset: wal.HeaderSize}, frame); err != nil {
		t.Fatal(err)
	}
	end, roll := f.End(), wal.Pos{Segment: 2, Offset: wal.HeaderSize}

	fs.SetCapacity(fs.Used() + 5) // a 17-byte header does not fit
	if _, _, err := f.AppendFrames(roll, frame); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("roll on a full disk = %v, want ENOSPC", err)
	}
	if f.End() != end {
		t.Fatalf("failed roll moved the end to %v", f.End())
	}
	fs.SetCapacity(0)
	if _, next, err := f.AppendFrames(roll, frame); err != nil || next.Segment != 2 {
		t.Fatalf("roll once there is room = %v, %v", next, err)
	}
}
