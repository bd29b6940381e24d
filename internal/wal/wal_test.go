package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *wal.Log, fromSeg uint64) []wal.Record {
	t.Helper()
	var out []wal.Record
	if err := l.Replay(fromSeg, func(_ uint64, rec wal.Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func rec(typ byte, payload string) wal.Record {
	return wal.Record{Type: typ, Data: []byte(payload)}
}

func TestAppendCloseReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []wal.Record{rec(1, "alpha"), rec(2, "bravo"), rec(3, ""), rec(9, "charlie")}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d = {%d %q}, want {%d %q}", i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
		}
	}
	if s := l2.Stats(); s.RecoveredRecords != int64(len(want)) {
		t.Errorf("RecoveredRecords = %d, want %d", s.RecoveredRecords, len(want))
	}
}

func TestRotationPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every few appends rotate.
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(rec(1, fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation to create several segments, have %d", s.Segments)
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("record-%03d", i); string(r.Data) != want {
			t.Fatalf("record %d = %q, want %q (order broken)", i, r.Data, want)
		}
	}
	l.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	fs := faultinject.NewMemFS(1)
	dir := "/wal"
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(1, fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.CurrentSegment()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn final write: half a frame appended to the segment.
	frame := wal.EncodeFrame(rec(1, "torn-record"))
	path := filepath.Join(dir, wal.SegmentName(seg))
	f, err := fs.OpenFile(path, os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != 3 {
		t.Fatalf("recovered %d records, want 3 (torn record dropped)", len(got))
	}
	if s := l2.Stats(); s.TornBytesTruncated != int64(len(frame)/2) {
		t.Errorf("TornBytesTruncated = %d, want %d", s.TornBytesTruncated, len(frame)/2)
	}
	// The truncated tail must never break a subsequent reopen.
	l2.Close()
	l3, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	l3.Close()
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	fs := faultinject.NewMemFS(2)
	dir := "/wal"
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(rec(1, fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := wal.ListSegments(fs, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments (err=%v, got %d)", err, len(segs))
	}
	l.Close()

	// Flip a payload byte in the FIRST segment: interior corruption.
	first := filepath.Join(dir, wal.SegmentName(segs[0]))
	if err := fs.FlipByte(first, 30, 0x40); err != nil {
		t.Fatal(err)
	}
	_, err = wal.Open(wal.Options{Dir: dir, FS: fs})
	var corrupt *wal.CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("open over mid-log corruption = %v, want *CorruptError", err)
	}
	if corrupt.Path != first {
		t.Errorf("corrupt path = %s, want %s", corrupt.Path, first)
	}
}

func TestRotateIsAnEpochBarrier(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(rec(1, "before")); err != nil {
			t.Fatal(err)
		}
	}
	barrier, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(2, "after")); err != nil {
			t.Fatal(err)
		}
	}
	// Everything before the barrier lives strictly below it; Replay from
	// the barrier sees exactly the records after it.
	if err := l.Replay(0, func(seg uint64, r wal.Record) error {
		if string(r.Data) == "before" && seg >= barrier {
			return fmt.Errorf("pre-barrier record in segment %d >= %d", seg, barrier)
		}
		if string(r.Data) == "after" && seg < barrier {
			return fmt.Errorf("post-barrier record in segment %d < %d", seg, barrier)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := collect(t, l, barrier)
	if len(after) != 4 {
		t.Fatalf("replay from barrier saw %d records, want 4", len(after))
	}
}

func TestTruncateBefore(t *testing.T) {
	fs := faultinject.NewMemFS(3)
	dir := "/wal"
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(rec(1, "old"))
	barrier, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	l.Append(rec(1, "new"))
	if err := l.TruncateBefore(barrier); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s < barrier {
			t.Errorf("segment %d survived TruncateBefore(%d)", s, barrier)
		}
	}
	got := collect(t, l, 0)
	if len(got) != 1 || string(got[0].Data) != "new" {
		t.Fatalf("after truncation replay = %v, want just %q", got, "new")
	}
}

// With SyncAlways every acked record survives a simulated power loss.
func TestSyncAlwaysSurvivesCrash(t *testing.T) {
	fs := faultinject.NewMemFS(4)
	dir := "/wal"
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := l.Append(rec(1, fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Power loss: no Close, no final sync.
	fs.Crash()
	l2, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != n {
		t.Fatalf("recovered %d records after crash, want %d", len(got), n)
	}
}

// With SyncNone a crash may lose records, but recovery still yields a
// clean prefix and never fails.
func TestSyncNoneCrashLeavesValidPrefix(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		fs := faultinject.NewMemFS(seed)
		dir := "/wal"
		l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		const n = 9
		for i := 0; i < n; i++ {
			if err := l.Append(rec(1, fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		fs.Crash()
		l2, err := wal.Open(wal.Options{Dir: dir, FS: fs})
		if err != nil {
			t.Fatalf("seed %d: open after crash: %v", seed, err)
		}
		got := collect(t, l2, 0)
		if len(got) > n {
			t.Fatalf("seed %d: recovered %d records, only %d written", seed, len(got), n)
		}
		for i, r := range got {
			if want := fmt.Sprintf("record-%d", i); string(r.Data) != want {
				t.Fatalf("seed %d: record %d = %q, want %q (not a prefix)", seed, i, r.Data, want)
			}
		}
		l2.Close()
	}
}

// TestSyncIntervalGroupCommit: under SyncInterval an append is fsynced by
// the first group commit an Interval on, and an idle round syncs nothing.
func TestSyncIntervalGroupCommit(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncInterval, Interval: 5 * time.Millisecond, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Fsyncs
	if err := l.Append(rec(1, "grouped")); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		d    time.Duration
		want int64
	}{{5*time.Millisecond - 1, 0}, {1, 1}, {5 * time.Millisecond, 1}} {
		clk.Advance(step.d)
		clk.WaitArmed(1)
		if got := l.Stats().Fsyncs - before; got != step.want {
			t.Errorf("%v after the append: %d group-commit fsyncs, want %d", clk.Since(time.Unix(1000, 0)), got, step.want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want wal.SyncPolicy
		ok   bool
	}{
		{"always", wal.SyncAlways, true},
		{"interval", wal.SyncInterval, true},
		{"none", wal.SyncNone, true},
		{"sometimes", 0, false},
		{"", 0, false},
	} {
		got, err := wal.ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, p := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		back, err := wal.ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v -> %q -> (%v, %v)", p, p.String(), back, err)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, MaxRecordBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(rec(1, "this payload is longer than sixteen bytes")); err == nil {
		t.Error("oversized record accepted")
	}
	if err := l.Append(rec(1, "short")); err != nil {
		t.Errorf("normal record rejected: %v", err)
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, "x")); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("Rotate after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
}

// TestFsyncLatencyStatsAreBounded: a long-lived log keeps a fixed-bucket
// fsync histogram, so after 200k fsyncs Stats() allocates what it did
// after the first few and the log's heap has not grown with the count
// (a per-sample recorder kept 8 B per fsync and re-sorted them all on
// every Stats call).
func TestFsyncLatencyStatsAreBounded(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: "/wal", FS: faultinject.NewMemFS(4), Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	syncN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	statsAllocs := func() float64 { return testing.AllocsPerRun(20, func() { _ = l.Stats() }) }

	syncN(100)
	allocsBefore, heapBefore := statsAllocs(), heap()
	const syncs = 200_000
	syncN(syncs)
	allocsAfter, heapAfter := statsAllocs(), heap()

	st := l.Stats()
	if st.Fsyncs != 100+syncs || st.FsyncLatency.Count != uint64(st.Fsyncs) {
		t.Fatalf("Fsyncs = %d, histogram count = %d, want both %d", st.Fsyncs, st.FsyncLatency.Count, 100+syncs)
	}
	if len(st.FsyncLatency.Counts) != len(st.FsyncLatency.Bounds)+1 {
		t.Fatalf("snapshot has %d cells for %d bounds", len(st.FsyncLatency.Counts), len(st.FsyncLatency.Bounds))
	}
	if allocsAfter != allocsBefore {
		t.Errorf("Stats() allocs grew with the fsync count: %v after 100 fsyncs, %v after %d more", allocsBefore, allocsAfter, syncs)
	}
	// 8 B per fsync would be 1.6 MB; allow the runtime some slack.
	if grown := int64(heapAfter) - int64(heapBefore); grown > 256<<10 {
		t.Errorf("heap grew %d B over %d fsyncs; want O(buckets)", grown, syncs)
	}
}

// The frame format has one decoder and a log directory one validation and
// one walk; every public route into them must read a segment the parent
// commit (PR 19) wrote — intact, and with a 6-byte torn tail — the same
// way, and a segment written today must be byte-identical to it.
func TestCrossVersionSegmentFixture(t *testing.T) {
	want := []wal.Record{rec(1, "alpha"), rec(2, ""), rec(9, "charlie-charlie")}
	const validLen = 64
	sameRecords := func(t *testing.T, route string, got []wal.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", route, len(got), len(want))
		}
		for i := range want {
			if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Errorf("%s: record %d = {%d %q}, want {%d %q}", route, i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
			}
		}
	}

	for _, fx := range []struct {
		file string
		torn int64
	}{
		{"pr19-segment.log", 0},
		{"pr19-segment-torn.log", 6},
	} {
		t.Run(fx.file, func(t *testing.T) {
			image, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			// Each route gets its own copy: Open and OpenFollowing repair it.
			stage := func() (dir, path string) {
				dir = t.TempDir()
				path = filepath.Join(dir, wal.SegmentName(1))
				if err := os.WriteFile(path, image, 0o600); err != nil {
					t.Fatal(err)
				}
				return dir, path
			}
			sizeOf := func(path string) int64 {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}

			dir, path := stage()
			l, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if s := l.Stats(); s.RecoveredRecords != 3 || s.TornBytesTruncated != fx.torn {
				t.Errorf("Open: recovered %d records, truncated %d bytes; want 3 and %d", s.RecoveredRecords, s.TornBytesTruncated, fx.torn)
			}
			sameRecords(t, "Open+Log.Replay", collect(t, l, 0))
			l.Close()
			if n := sizeOf(path); n != validLen {
				t.Errorf("Open left %d bytes, want %d", n, validLen)
			}

			dir, path = stage()
			fl, err := wal.OpenFollowing(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if s := fl.Stats(); s.RecoveredRecords != 3 || s.TornBytesTruncated != fx.torn || fl.End() != (wal.Pos{Segment: 1, Offset: validLen}) {
				t.Errorf("OpenFollowing = %+v ending at %v, want 3 records ending at 1,%d with %d bytes truncated", s, fl.End(), validLen, fx.torn)
			}
			sameRecords(t, "OpenFollowing+Log.Replay", collect(t, fl, 0))
			fl.Close()
			if n := sizeOf(path); n != validLen {
				t.Errorf("OpenFollowing left %d bytes, want %d", n, validLen)
			}

			dir, _ = stage()
			var walked []wal.Record
			if err := wal.Replay(nil, dir, 0, 0, func(seg uint64, r wal.Record) error {
				if seg != 1 {
					t.Errorf("Replay reported segment %d", seg)
				}
				walked = append(walked, r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			sameRecords(t, "Replay", walked)

			n, valid, err := wal.VerifySegmentFile(nil, dir, 1, 0)
			var corrupt *wal.CorruptError
			if n != 3 || valid != validLen || (fx.torn == 0) != (err == nil) ||
				(err != nil && (!errors.As(err, &corrupt) || corrupt.Offset != validLen)) {
				t.Errorf("VerifySegmentFile = %d records, %d bytes, %v", n, valid, err)
			}

			decoded, used := wal.DecodeFrames(image[wal.HeaderSize:], 0)
			if used != validLen-wal.HeaderSize {
				t.Errorf("DecodeFrames accepted %d bytes, want %d", used, validLen-wal.HeaderSize)
			}
			sameRecords(t, "DecodeFrames", decoded)
		})
	}

	// Written today: byte-identical to what the parent wrote.
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, wal.SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr19-segment.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Errorf("segment written today differs from the PR 19 fixture:\n got %x\nwant %x", got, fixture)
	}
}
