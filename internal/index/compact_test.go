package index

// Compaction equivalence: a DB that merges aggressively (tiny threshold,
// explicit Compact calls interleaved) must be observably identical to a DB
// that never merges (negative threshold pins the head-only map layout),
// when both replay the same operation sequence. "Observably identical"
// means byte-identical AppendSnapshot output (a pure function of logical
// contents), an equal Digest (the incrementally maintained fold, which does
// not go through the codec) plus equal answers from every query API — the
// property compaction must preserve for the golden suites.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// opSeq replays a deterministic mixed workload (updates with overlapping
// hash sets, re-updates, removals, threshold changes, expiry) against db.
// Every k ops, tick(db) runs (e.g. Compact) — the compacted DB merges
// mid-stream while the baseline never does.
func opSeq(db *DB, rng *rand.Rand, ops int, tick func(*DB), k int) {
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			seg := segment.ID(fmt.Sprintf("doc%d#p%d", rng.Intn(8), rng.Intn(12)))
			hs := make([]uint32, 0, 20)
			base := rng.Intn(40)
			for j := 0; j < 20; j++ {
				hs = append(hs, uint32(base*10+j)*0x9e3779b1)
			}
			db.Update(seg, fingerprint.FromHashes(hs))
		case 6:
			db.RemoveSegment(segment.ID(fmt.Sprintf("doc%d#p%d", rng.Intn(8), rng.Intn(12))))
		case 7:
			db.SetThreshold(segment.ID(fmt.Sprintf("doc%d#p%d", rng.Intn(8), rng.Intn(12))), 0.25)
		case 8:
			if now := db.Now(); now > 50 {
				db.ExpireBefore(now - 50)
			}
		case 9:
			seg := segment.ID(fmt.Sprintf("doc%d#p%d", rng.Intn(8), rng.Intn(12)))
			db.AuthoritativeCount(seg)
		}
		if k > 0 && i%k == k-1 {
			tick(db)
		}
	}
}

// assertSameObservable checks every query API agrees between a and b over
// the hash/segment universe of the workload.
func assertSameObservable(t *testing.T, a, b *DB) {
	t.Helper()
	if ea, eb := a.AppendSnapshot(nil), b.AppendSnapshot(nil); !bytes.Equal(ea, eb) {
		t.Fatalf("snapshot bytes diverged: compacted %d bytes, baseline %d bytes", len(ea), len(eb))
	}
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Fatalf("Digest diverged: compacted %+v baseline %+v", da, db)
	}
	for base := 0; base < 40; base++ {
		for j := 0; j < 20; j++ {
			h := uint32(base*10+j) * 0x9e3779b1
			sa, oka := a.OldestHolder(h)
			sb, okb := b.OldestHolder(h)
			if sa != sb || oka != okb {
				t.Fatalf("OldestHolder(%#x): compacted (%q,%v) baseline (%q,%v)", h, sa, oka, sb, okb)
			}
			if ha, hb := a.Holders(h), b.Holders(h); !reflect.DeepEqual(ha, hb) {
				t.Fatalf("Holders(%#x): compacted %v baseline %v", h, ha, hb)
			}
		}
	}
	for d := 0; d < 8; d++ {
		for p := 0; p < 12; p++ {
			seg := segment.ID(fmt.Sprintf("doc%d#p%d", d, p))
			if ca, cb := a.AuthoritativeCount(seg), b.AuthoritativeCount(seg); ca != cb {
				t.Fatalf("AuthoritativeCount(%s): compacted %d baseline %d", seg, ca, cb)
			}
			if fp, _, ok := b.Origin(seg); ok {
				oa, la := a.AuthoritativeOverlap(seg, fp)
				ob, lb := b.AuthoritativeOverlap(seg, fp)
				if oa != ob || la != lb {
					t.Fatalf("AuthoritativeOverlap(%s): compacted (%d,%d) baseline (%d,%d)", seg, oa, la, ob, lb)
				}
			}
			if ta, tb := a.Threshold(seg), b.Threshold(seg); ta != tb {
				t.Fatalf("Threshold(%s): compacted %v baseline %v", seg, ta, tb)
			}
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Segments != sb.Segments || sa.DistinctHashes != sb.DistinctHashes || sa.Postings != sb.Postings {
		t.Fatalf("Stats diverged: compacted %+v baseline %+v", sa, sb)
	}
}

func TestCompactionObservableEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				compacted := NewWithShards(0.5, shards)
				compacted.SetCompactThreshold(1) // merge at every opportunity
				baseline := NewWithShards(0.5, shards)
				baseline.SetCompactThreshold(-1) // never merge: head-only layout

				opSeq(compacted, rand.New(rand.NewSource(seed)), 600, (*DB).Compact, 7)
				opSeq(baseline, rand.New(rand.NewSource(seed)), 600, func(*DB) {}, 7)

				assertSameObservable(t, compacted, baseline)
				checkInvariants(t, compacted)
				checkInvariants(t, baseline)

				// One more merge of everything must change nothing.
				compacted.Compact()
				assertSameObservable(t, compacted, baseline)
			})
		}
	}
}

// TestCompactionStatsBaseline pins that a merged index reports a smaller
// modelled footprint than the head-only layout for the same contents.
func TestCompactionStatsBaseline(t *testing.T) {
	build := func(threshold int) *DB {
		db := New(0.5)
		db.SetCompactThreshold(threshold)
		for i := 0; i < 500; i++ {
			hs := make([]uint32, 32)
			for j := range hs {
				hs[j] = uint32(i*16+j) * 0x9e3779b1
			}
			db.Update(segment.ID(fmt.Sprintf("s#%d", i)), fingerprint.FromHashes(hs))
		}
		return db
	}
	merged := build(1)
	merged.Compact()
	headOnly := build(-1)
	ms, hsz := merged.Stats(), headOnly.Stats()
	if ms.Postings != hsz.Postings || ms.DistinctHashes != hsz.DistinctHashes {
		t.Fatalf("contents diverged: %+v vs %+v", ms, hsz)
	}
	if ms.HeadPostings != 0 {
		t.Fatalf("Compact left %d head postings", ms.HeadPostings)
	}
	if hsz.HeadPostings != hsz.Postings {
		t.Fatalf("baseline compacted anyway: %+v", hsz)
	}
	if ms.ApproxBytes >= hsz.ApproxBytes {
		t.Fatalf("merged ApproxBytes %d not below head-only %d", ms.ApproxBytes, hsz.ApproxBytes)
	}
}
