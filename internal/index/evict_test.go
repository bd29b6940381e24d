package index

// Dropping a row drops its decision, across the physical layouts:
// RemoveSegment and ExpireBefore must take exactly the rows of the
// segments they drop — whether a segment's postings span the mutable head
// and the compacted run (inline slots and spill alike) or a snapshot
// restore rebuilt them — and every decision with them, while the
// survivors keep their rows and decisions. A decision that outlived its
// row would answer an observe that must reach Update.

import (
	"fmt"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

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

// evictDecision is segment i's decision: every third one discloses a
// source, so both the flag-only and the side-map forms are dropped.
func evictDecision(i int) *Decision {
	if i%3 != 0 {
		return &Decision{}
	}
	return &Decision{Sources: []Source{{Seg: evictSeg(i + 100), Disclosure: 0.75, Threshold: 0.5}}}
}

// decide stores segment i's fingerprint in db with its decision.
func decide(db *DB, i int) { db.Update(evictSeg(i), evictFP(i), evictDecision(i)) }

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

// checkRows asserts that segments [0, n) have a row exactly when gone
// does not name them, and a decided one exactly when they are decided too.
func checkRows(t *testing.T, db *DB, n int, gone, decided func(i int) bool) {
	t.Helper()
	wantDecided, wantSourced := 0, 0
	for i := 0; i < n; i++ {
		_, has := db.Fingerprint(evictSeg(i))
		if has == gone(i) {
			t.Errorf("segment %d: row present = %v, want %v", i, has, !gone(i))
		}
		sources, ok := db.Decision(evictSeg(i), evictFP(i).Hashes())
		if want := !gone(i) && decided(i); ok != want {
			t.Errorf("segment %d: decided = %v, want %v", i, ok, want)
		} else if ok && !slices.Equal(sources, evictDecision(i).Sources) {
			t.Errorf("segment %d: decision sources %v, want %v", i, sources, evictDecision(i).Sources)
		}
		if !gone(i) && decided(i) {
			wantDecided++
			if len(evictDecision(i).Sources) > 0 {
				wantSourced++
			}
		}
	}
	if d, s := db.Decisions(); d != wantDecided || s != wantSourced {
		t.Errorf("Decisions() = %d, %d with sources; want %d, %d", d, s, wantDecided, wantSourced)
	}
}

func TestExpireBeforeEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "split", "restored"} {
		t.Run(layout, func(t *testing.T) {
			db := New(nil, 0.5)
			const old, young = 8, 8
			for i := 0; i < old; i++ {
				decide(db, i)
			}
			if layout != "head" {
				db.Compact() // old segments' postings now live in the runs
			}
			cutoff := db.Now() + 1
			for i := old; i < old+young; i++ {
				decide(db, i)
			}
			switch layout {
			case "compacted":
				db.Compact() // everything merged; "split" keeps young in heads
			case "restored":
				db = restoredCopy(t, db)
				// No decision survives a restore; make the young ones again.
				none := func(int) bool { return false }
				checkRows(t, db, old+young, none, none)
				for i := old; i < old+young; i++ {
					decide(db, i)
				}
			}

			db.ExpireBefore(cutoff)
			expired := func(i int) bool { return i < old }
			all := func(int) bool { return true }
			checkRows(t, db, old+young, expired, all)

			// A second expiry at the same cutoff has nothing left to drop.
			db.ExpireBefore(cutoff)
			checkRows(t, db, old+young, expired, all)
			checkInvariants(t, db)
		})
	}
}

func TestRemoveSegmentEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "restored"} {
		compacted := layout == "compacted"
		t.Run(layout, func(t *testing.T) {
			const n = 6
			db := New(nil, 0.5)
			for i := 0; i < n; i++ {
				decide(db, i)
			}
			if compacted {
				db.Compact()
			}
			if layout == "restored" {
				db = restoredCopy(t, db)
				for i := 0; i < n; i++ {
					decide(db, i)
				}
			}
			all := func(int) bool { return true }

			db.RemoveSegment(evictSeg(3))
			removed := func(i int) bool { return i == 3 }
			checkRows(t, db, n, removed, all)
			// Removing a segment that is already gone, or never existed,
			// drops nothing.
			db.RemoveSegment(evictSeg(3))
			db.RemoveSegment(segment.ID("wiki/never#p0"))
			checkRows(t, db, n, removed, all)

			// Re-added undecided, the row is back without a decision; decided
			// again and removed again, both go once more.
			db.Update(evictSeg(3), evictFP(3), nil)
			checkRows(t, db, n, func(int) bool { return false }, func(i int) bool { return i != 3 })
			decide(db, 3)
			if compacted {
				db.Compact()
			}
			db.RemoveSegment(evictSeg(3))
			checkRows(t, db, n, removed, all)
			checkInvariants(t, db)
		})
	}
}
