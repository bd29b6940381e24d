package index

// Eviction-hook contract across the physical layouts: RemoveSegment and
// ExpireBefore must notify the hook exactly once per dropped segment — no
// duplicates when a segment's postings span the mutable head and the
// compacted run (inline slots and spill alike), none after a snapshot
// restore, and no phantom notifications for survivors or for already-gone
// segments. The WAL relies on this to journal each eviction exactly once.

import (
	"fmt"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// evictRecorder counts hook notifications per segment.
type evictRecorder map[segment.ID]int

func (r evictRecorder) hook(segs []segment.ID) {
	for _, s := range segs {
		r[s]++
	}
}

func evictSeg(i int) segment.ID { return segment.ID(fmt.Sprintf("wiki/evict#p%d", i)) }

func evictFP(i int) *fingerprint.Fingerprint {
	hs := make([]uint32, 0, 24)
	for j := 0; j < 24; j++ {
		// Overlapping stride so hashes are shared across segments and every
		// shard sees both run-resident and head-resident postings.
		hs = append(hs, uint32((i*5+j*17)%96)*0x9e3779b1)
	}
	return fingerprint.FromHashes(hs)
}

// restoredCopy round-trips db through its snapshot: the layout a restarted
// node, a bootstrapped standby and a promoted replica run on.
func restoredCopy(t *testing.T, db *DB) *DB {
	t.Helper()
	restored := New(nil, 0)
	if err := restored.LoadSnapshot(db.AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestExpireBeforeEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "split", "restored"} {
		t.Run(layout, func(t *testing.T) {
			db := New(nil, 0.5)
			const old, young = 8, 8
			for i := 0; i < old; i++ {
				db.Update(evictSeg(i), evictFP(i))
			}
			if layout != "head" {
				db.Compact() // old segments' postings now live in the runs
			}
			cutoff := db.Now() + 1
			for i := old; i < old+young; i++ {
				db.Update(evictSeg(i), evictFP(i))
			}
			switch layout {
			case "compacted":
				db.Compact() // everything merged; "split" keeps young in heads
			case "restored":
				db = restoredCopy(t, db)
			}

			rec := evictRecorder{}
			db.SetEvictHook(rec.hook)
			db.ExpireBefore(cutoff)

			for i := 0; i < old; i++ {
				if n := rec[evictSeg(i)]; n != 1 {
					t.Errorf("expired segment %d notified %d times, want exactly 1", i, n)
				}
			}
			for i := old; i < old+young; i++ {
				if n := rec[evictSeg(i)]; n != 0 {
					t.Errorf("surviving segment %d notified %d times, want 0", i, n)
				}
			}

			// A second expiry at the same cutoff has nothing left to evict:
			// the hook must stay silent.
			before := len(rec)
			db.ExpireBefore(cutoff)
			if len(rec) != before {
				t.Errorf("idempotent re-expiry fired the hook: %v", rec)
			}
			checkInvariants(t, db)
		})
	}
}

func TestRemoveSegmentEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "restored"} {
		compacted := layout == "compacted"
		t.Run(layout, func(t *testing.T) {
			db := New(nil, 0.5)
			for i := 0; i < 6; i++ {
				db.Update(evictSeg(i), evictFP(i))
			}
			if compacted {
				db.Compact()
			}
			if layout == "restored" {
				db = restoredCopy(t, db)
			}
			rec := evictRecorder{}
			db.SetEvictHook(rec.hook)

			db.RemoveSegment(evictSeg(2))
			if n := rec[evictSeg(2)]; n != 1 {
				t.Fatalf("removed segment notified %d times, want exactly 1", n)
			}
			// Removing a segment that is already gone, or never existed,
			// must not notify.
			db.RemoveSegment(evictSeg(2))
			db.RemoveSegment(segment.ID("wiki/never#p0"))
			if n := rec[evictSeg(2)]; n != 1 {
				t.Fatalf("re-removal re-notified: %d times", n)
			}
			if len(rec) != 1 {
				t.Fatalf("unexpected notifications: %v", rec)
			}

			// Re-adding and removing again is a fresh eviction event.
			db.Update(evictSeg(2), evictFP(2))
			if compacted {
				db.Compact()
			}
			db.RemoveSegment(evictSeg(2))
			if n := rec[evictSeg(2)]; n != 2 {
				t.Fatalf("re-added segment's removal notified %d times total, want 2", n)
			}
			checkInvariants(t, db)
		})
	}
}
