package wal_test

// The log's tests: scripts through the model rig (model_test.go), each
// named after the behaviour it exercises, and the few answers no script
// states (flags, positions, bounds, an earlier build's format).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *wal.Log, fromSeg uint64) []wal.Record {
	t.Helper()
	var out []wal.Record
	if err := l.Replay(fromSeg, func(_ uint64, rec wal.Record) error { out = append(out, rec); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

var following = logSetup{following: true}

func TestAppendCloseReopenRoundTrip(t *testing.T) { runLog(t, logSetup{}, "a4 close open") }

func TestRotationPreservesOrder(t *testing.T) { runLog(t, logSetup{segBytes: 64}, "a50") }

func TestTornTailTruncatedOnOpen(t *testing.T) {
	runLog(t, logSetup{}, "a3 close tear:8 open close open")
}

// Mid-log decay is no reason to refuse to start: the corrupt sealed
// segment is quarantined and the gap it leaves reported.
func TestMidLogCorruptionIsFatal(t *testing.T) {
	r := runLog(t, logSetup{segBytes: 64}, "a20 close flip:0 open")
	if st := r.l.Stats(); st.QuarantinedSegments != 1 || st.RecoveryGaps != 1 {
		t.Errorf("stats %+v, want one segment quarantined and one gap", st)
	}
}

func TestRotateIsAnEpochBarrier(t *testing.T) { runLog(t, logSetup{}, "a5 rot a4") }

func TestTruncateBefore(t *testing.T) { runLog(t, logSetup{}, "a rot a rot a truncto:2 trunc") }

func TestSyncAlwaysSurvivesCrash(t *testing.T) { runLog(t, logSetup{}, "a7 crash") }

func TestSyncNoneCrashLeavesValidPrefix(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runLog(t, logSetup{policy: wal.SyncNone, seed: seed}, "a9 crash")
	}
}

// The first group commit an interval after an append makes it durable.
func TestSyncIntervalGroupCommit(t *testing.T) {
	runLog(t, logSetup{policy: wal.SyncInterval}, "a tick tick a crash a2 tick crash")
}

func TestOversizedRecordRejected(t *testing.T) { runLog(t, logSetup{maxRecord: 16}, "big a") }

func TestClosedLogRejectsOperations(t *testing.T) { runLog(t, logSetup{}, "a close") }

func TestPosStringParseRoundTrip(t *testing.T) {
	for _, p := range []wal.Pos{{}, {Segment: 1, Offset: 17}, {Segment: 1 << 40, Offset: 123456789}} {
		if got, err := wal.ParsePos(p.String()); err != nil || got != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), got, err)
		}
	}
	for _, bad := range []string{"", "1", "1,", "x,y", "1,-5"} {
		if _, err := wal.ParsePos(bad); err == nil {
			t.Errorf("ParsePos(%q) succeeded, want error", bad)
		}
	}
	if !(wal.Pos{Segment: 1, Offset: 99}).Less(wal.Pos{Segment: 2, Offset: 17}) || !(wal.Pos{Segment: 2, Offset: 17}).Less(wal.Pos{Segment: 2, Offset: 18}) {
		t.Error("Pos ordering broken")
	}
}

func TestReadFromMatchesDiskBytes(t *testing.T) { runLog(t, logSetup{segBytes: 256}, "a50") }

func TestReadFromCaughtUpAndCount(t *testing.T) { runLog(t, logSetup{}, "a7") }

func TestReadFromRollsOverSealedSegment(t *testing.T) { runLog(t, logSetup{}, "a3 rot a2") }

func TestReadFromPositionGone(t *testing.T) { runLog(t, logSetup{}, "a3 rot trunc") }

// A read whose segment a checkpoint removes under it reports
// ErrPositionGone, which a standby answers by re-bootstrapping at once.
func TestReadFromRacingTruncationIsPositionGone(t *testing.T) {
	runLog(t, logSetup{}, "a3 rot racetrunc")
}

func TestWaitFromWakesOnAppend(t *testing.T) { runLog(t, logSetup{}, "park a park a3") }

func TestWaitFromWakesOnRotate(t *testing.T) { runLog(t, logSetup{}, "a3 park rot park rot") }

func TestWaitFromWakesOnClose(t *testing.T) { runLog(t, logSetup{}, "park close") }

// Replay walks the directory: across segments, over a torn newest
// segment, and refusing a corrupt older one before any of its records.
func TestReplayWalksDirectory(t *testing.T) {
	runLog(t, logSetup{segBytes: 256}, "a40 sync close tear:7 open close flip:2 open")
}

// OpenFollowing truncates a torn tail and ends exactly at the last valid
// byte, so a restarting standby resumes streaming from there.
func TestOpenFollowingTruncatesTornTail(t *testing.T) {
	runLog(t, following, "a5 ship close tear:6 open ship")
}

// An empty directory opens following at the zero position: the standby
// must bootstrap from a snapshot.
func TestOpenFollowingEmpty(t *testing.T) { runLog(t, following, "close open") }

// Mid-log decay quarantines for OpenFollowing as for Open.
func TestOpenFollowingMidLogCorruption(t *testing.T) {
	r := runLog(t, following, "a3 rot a3 ship close flip:0 open")
	if st := r.l.Stats(); st.QuarantinedSegments != 1 || st.RecoveryGaps != 1 {
		t.Errorf("stats %+v, want one segment quarantined and one gap", st)
	}
}

// A following log stays a byte prefix of its stream across rolls and a
// reopen; a failed commit leaves it following; EndFollowing turns it into
// an ordinary log one segment above the followed prefix.
func TestFollowingLogMirrorsLeader(t *testing.T) {
	runLog(t, following, "a4 ship rot a4 ship rot a4 ship rot ship close open a ship endfail a ship end a")
}

// Frames land only at the end or at the header of a later segment (index
// gaps are the stream's to decide), and a torn batch lands its valid
// prefix.
func TestAppendFramesPositions(t *testing.T) {
	runLog(t, logSetup{following: true, start: 5}, "a2 ship diverge rot:3 a ship diverge")
}

// A write that fails part-way leaves the end where it was; the torn bytes
// are cut off before the next append.
func TestAppendFramesRepairsFailedWrite(t *testing.T) {
	runLog(t, following, "a ship eio:5 a ship ship heal ship a ship")
}

// A segment whose header could not be written is not left behind to trip
// the next attempt over O_EXCL: once there is room the same roll succeeds.
func TestRollRetriesAfterFailedHeader(t *testing.T) {
	runLog(t, following, "a ship rot full:5 a ship heal ship")
}

// A reader standing exactly at the end of the segment a checkpoint just
// truncated has missed nothing and rolls over to the first live segment.
func TestReadFromEndOfTruncatedSegment(t *testing.T) { runLog(t, logSetup{}, "a3 rot a rot trunc a") }

func TestVerifySegmentFile(t *testing.T) { runLog(t, logSetup{}, "a5 rot a5 rot close flip:0") }

func TestOpenQuarantinesCorruptSealedSegment(t *testing.T) {
	r := runLog(t, logSetup{}, "a4 rot a4 rot a4 rot close flip:1 open")
	if st := r.l.Stats(); st.QuarantinedSegments != 1 || st.RecoveryGaps != 1 || st.RecoveredRecords != 8 {
		t.Errorf("stats %+v, want 8 records recovered around one quarantined segment", st)
	}
	if got := wal.CountQuarantined(r.fs, rigDir); got != 1 {
		t.Errorf("CountQuarantined = %d, want 1", got)
	}
	r.run("close open")
	if st := r.l.Stats(); st.QuarantinedSegments != 0 || st.RecoveryGaps != 1 {
		t.Errorf("reopened over the gap: stats %+v, want the gap and no new quarantine", st)
	}
}

func TestLogQuarantineLiveSegment(t *testing.T) { runLog(t, logSetup{}, "a rot q:2 q:101 q:1 q:1") }

// TestLogScripts runs random scripts of every operation over every policy
// and both roles, with crashes at writes and fsyncs, torn writes and bit
// flips.
func TestLogScripts(t *testing.T) {
	seeds, ops := 6, 150
	if testing.Short() || raceEnabled {
		seeds, ops = 1, 25
	}
	for _, follow := range []bool{false, true} {
		for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
			t.Run(fmt.Sprintf("following=%v/fsync=%v", follow, pol), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= int64(seeds); seed++ {
					logWorkload(newLogRig(t, logSetup{policy: pol, segBytes: 160, maxRecord: 64, following: follow, seed: seed}), ops)
				}
			})
		}
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
	want := []wal.Record{{Type: 1, Data: []byte("alpha")}, {Type: 2}, {Type: 9, Data: []byte("charlie-charlie")}}
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

// Directory validation (the pass Open and OpenFollowing share) counts records
// without materialising them: its allocations must not grow with the
// number of records in a segment.
func TestValidationDoesNotAllocatePerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(records int) float64 {
		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := l.Append(wal.Record{Type: 1, Data: fmt.Appendf(nil, "record-%04d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		return testing.AllocsPerRun(5, func() {
			l, err := wal.OpenFollowing(wal.Options{Dir: dir})
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
