package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// recount recomputes the Stats counters the slow way, straight from the
// shard contents, to pin the incrementally maintained values.
func recount(db *DB) (segments, distinct, postings int) {
	segments = liveRows(db)
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		sh.walkHashesLocked(func(h uint32, g, i int) {
			if n := len(sh.appendPostingsLocked(h, g, i, nil)); n > 0 {
				distinct++
				postings += n
			}
		})
		sh.mu.RUnlock()
	}
	return
}

func checkCounters(t *testing.T, db *DB, when string) {
	t.Helper()
	segs, distinct, postings := recount(db)
	s := db.Stats()
	if s.Segments != segs || s.DistinctHashes != distinct || s.Postings != postings {
		t.Fatalf("%s: Stats{Segments:%d DistinctHashes:%d Postings:%d} != recount{%d %d %d}",
			when, s.Segments, s.DistinctHashes, s.Postings, segs, distinct, postings)
	}
}

// TestStatsCountersMaintained drives Update, overlapping re-Update,
// RemoveSegment and ExpireBefore, and checks after every step that the
// O(1) counters match a full recount.
func TestStatsCountersMaintained(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewWithShards(nil, 0.5, shards)
			var mids []uint64
			for i := 0; i < 20; i++ {
				// Overlapping hash sets: consecutive segments share half
				// their hashes, so postings ≠ segments × hashes.
				hs := make([]uint32, 0, 16)
				for j := 0; j < 16; j++ {
					hs = append(hs, uint32(i*8+j)*0x9e3779b1)
				}
				seq := db.Update(segment.ID(fmt.Sprintf("doc#p%d", i)), fingerprint.FromHashes(hs), nil)
				mids = append(mids, seq)
				checkCounters(t, db, fmt.Sprintf("after update %d", i))
			}
			// Re-update an existing segment with a changed fingerprint: only
			// the new hashes add postings.
			db.Update("doc#p3", fingerprint.FromHashes([]uint32{1, 2, 3}), nil)
			checkCounters(t, db, "after re-update")

			db.SetThreshold("thresholds-only", 0.9)
			checkCounters(t, db, "after SetThreshold")

			db.RemoveSegment("doc#p5")
			db.RemoveSegment("doc#p5") // idempotent
			db.RemoveSegment("never-existed")
			checkCounters(t, db, "after RemoveSegment")

			db.ExpireBefore(mids[10])
			checkCounters(t, db, "after ExpireBefore")

			db.ExpireBefore(db.Now() + 1) // drop everything
			checkCounters(t, db, "after full expiry")
			if s := db.Stats(); s.Postings != 0 || s.DistinctHashes != 0 {
				t.Fatalf("full expiry left Stats %+v", s)
			}
		})
	}
}

// TestStatsLargeExact pins the counters on an overlapping corpus where the
// closed-form values are known: each segment shares half its hashes with
// its predecessor, so postings record every (hash, segment) pair once
// while distinct hashes grow by only half a fingerprint per segment.
func TestStatsLargeExact(t *testing.T) {
	db := New(nil, 0.5)
	perSeg := 64
	segs := 200
	for i := 0; i < segs; i++ {
		hs := make([]uint32, perSeg)
		for j := range hs {
			hs[j] = uint32(i*perSeg/2 + j) // 50% overlap with the previous segment
		}
		db.Update(segment.ID(fmt.Sprintf("s#%d", i)), fingerprint.FromHashes(hs), nil)
	}
	s := db.Stats()
	wantPostings := segs * perSeg
	wantDistinct := perSeg + (segs-1)*perSeg/2
	if s.Segments != segs || s.Postings != wantPostings || s.DistinctHashes != wantDistinct {
		t.Fatalf("Stats = %+v, want Segments=%d Postings=%d DistinctHashes=%d", s, segs, wantPostings, wantDistinct)
	}
}

// TestApproxBytesTracksHeap holds the Stats.ApproxBytes model to the
// measured heap: a 200 k-hash database built through Update must be
// estimated within ±15 % of what it actually retains, both as built (all
// postings in the mutable head, which no inline merge may empty) and
// after Compact (all in runs). The dashboard prints the estimate.
func TestApproxBytesTracksHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const segments, perSeg = 7500, 27 // ≈ 600-byte paragraphs
	rng := rand.New(rand.NewSource(5))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	segs := make([]segment.ID, segments)
	for i := range segs {
		segs[i] = segment.ID(fmt.Sprintf("book%d#p%d", i/80, i%80))
	}
	raw := make([]uint32, perSeg)
	before := heap()
	db := New(nil, 0.5)
	db.SetCompactThreshold(-1)
	for _, seg := range segs {
		for i := range raw {
			raw[i] = rng.Uint32()
		}
		db.Update(seg, fingerprint.FromHashes(raw), nil)
	}
	// A corpus-scale ingest leaves a mix of the two layouts.
	for _, layout := range []string{"head", "compacted"} {
		if layout == "compacted" {
			db.Compact()
		}
		grown := float64(heap() - before)
		s := db.Stats()
		t.Logf("%s: %d segments, %d hashes, %d postings (%d in the head): heap +%.2f MB, ApproxBytes %.2f MB (%.1f vs %.1f B/hash)",
			layout, s.Segments, s.DistinctHashes, s.Postings, s.HeadPostings, grown/1e6, float64(s.ApproxBytes)/1e6,
			grown/float64(s.DistinctHashes), float64(s.ApproxBytes)/float64(s.DistinctHashes))
		if s.DistinctHashes < 200_000 {
			t.Fatalf("fixture built %d distinct hashes, want ≥ 200 000", s.DistinctHashes)
		}
		if want := map[string]int{"head": s.Postings, "compacted": 0}[layout]; s.HeadPostings != want {
			t.Fatalf("%s: %d of %d postings in the head, want %d", layout, s.HeadPostings, s.Postings, want)
		}
		if ratio := float64(s.ApproxBytes) / grown; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: ApproxBytes is %.2f× the measured heap growth, want within ±15 %%", layout, ratio)
		}
	}
	runtime.KeepAlive(db)
}
