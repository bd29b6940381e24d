package index

import (
	"fmt"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

func fp(hashes ...uint32) *fingerprint.Fingerprint {
	return fingerprint.FromHashes(hashes)
}

func TestUpdateAndLookup(t *testing.T) {
	db := New(nil, 0.5)
	seqA := db.Update("doc#p0", fp(1, 2, 3))
	seqB := db.Update("doc#p1", fp(3, 4))
	if seqA >= seqB {
		t.Errorf("clock not monotone: %d >= %d", seqA, seqB)
	}
	got, ok := db.Fingerprint("doc#p0")
	if !ok || got.Len() != 3 {
		t.Fatalf("Fingerprint(doc#p0): ok=%v len=%d", ok, got.Len())
	}
	if _, ok := db.Fingerprint("missing"); ok {
		t.Error("Fingerprint(missing) should not be found")
	}
}

func TestOldestHolder(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fp(10, 11))
	db.Update("b", fp(10, 12))
	holder, ok := db.OldestHolder(10)
	if !ok || holder != "a" {
		t.Errorf("OldestHolder(10)=%q,%v, want a,true", holder, ok)
	}
	holder, ok = db.OldestHolder(12)
	if !ok || holder != "b" {
		t.Errorf("OldestHolder(12)=%q,%v, want b,true", holder, ok)
	}
	if _, ok := db.OldestHolder(999); ok {
		t.Error("OldestHolder(999) should not be found")
	}
}

func TestFirstSeenSurvivesReupdate(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fp(10))
	db.Update("b", fp(10))
	// Re-updating a does not lose or refresh its first-seen ordering.
	db.Update("a", fp(10, 20))
	if holder, _ := db.OldestHolder(10); holder != "a" {
		t.Errorf("OldestHolder(10)=%q after re-update, want a", holder)
	}
	if got := len(db.Holders(10)); got != 2 {
		t.Errorf("Holders(10)=%d postings, want 2 (no duplicates)", got)
	}
}

func TestHoldersOrder(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("x", fp(7))
	db.Update("y", fp(7))
	db.Update("z", fp(7))
	got := db.Holders(7)
	want := []segment.ID{"x", "y", "z"}
	if len(got) != len(want) {
		t.Fatalf("Holders=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Holders[%d]=%q, want %q", i, got[i], want[i])
		}
	}
}

func TestThresholds(t *testing.T) {
	db := New(nil, 0.5)
	if got := db.Threshold("unknown"); got != 0.5 {
		t.Errorf("default threshold=%v, want 0.5", got)
	}
	db.Update("a", fp(1))
	db.SetThreshold("a", 0.8)
	if got := db.Threshold("a"); got != 0.8 {
		t.Errorf("threshold(a)=%v, want 0.8", got)
	}
	// SetThreshold on an unseen segment creates it.
	db.SetThreshold("new", 0.1)
	if got := db.Threshold("new"); got != 0.1 {
		t.Errorf("threshold(new)=%v, want 0.1", got)
	}
}

func TestAuthoritativeCount(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fp(1, 2, 3))
	db.Update("b", fp(2, 3, 4)) // b is authoritative only for 4
	if got := db.AuthoritativeCount("a"); got != 3 {
		t.Errorf("AuthoritativeCount(a)=%d, want 3", got)
	}
	if got := db.AuthoritativeCount("b"); got != 1 {
		t.Errorf("AuthoritativeCount(b)=%d, want 1", got)
	}
	if got := db.AuthoritativeCount("missing"); got != 0 {
		t.Errorf("AuthoritativeCount(missing)=%d, want 0", got)
	}
}

func TestAuthoritativeOverlap(t *testing.T) {
	// Figure 7 scenario: B is a superset of A; C copies the shared text.
	// A's authoritative hashes {1,2}; B's authoritative {3} (1,2 first seen
	// in A). C = {1,2} overlaps A fully but B only via non-authoritative
	// hashes.
	db := New(nil, 0.5)
	db.Update("A", fp(1, 2))
	db.Update("B", fp(1, 2, 3))
	c := fp(1, 2)
	overlapA, lenA := db.AuthoritativeOverlap("A", c)
	if overlapA != 2 || lenA != 2 {
		t.Errorf("AuthoritativeOverlap(A)=(%d,%d), want (2,2)", overlapA, lenA)
	}
	overlapB, lenB := db.AuthoritativeOverlap("B", c)
	if overlapB != 0 || lenB != 3 {
		t.Errorf("AuthoritativeOverlap(B)=(%d,%d), want (0,3)", overlapB, lenB)
	}
}

func TestRemoveSegmentPromotesYounger(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("old", fp(5))
	db.Update("young", fp(5))
	db.RemoveSegment("old")
	if holder, ok := db.OldestHolder(5); !ok || holder != "young" {
		t.Errorf("after removal OldestHolder(5)=%q,%v, want young,true", holder, ok)
	}
	if _, ok := db.Fingerprint("old"); ok {
		t.Error("removed segment still has a fingerprint")
	}
	// Removing an unknown segment is a no-op.
	db.RemoveSegment("ghost")
}

func TestRemoveSegmentDropsEmptyHashEntries(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("only", fp(42))
	db.RemoveSegment("only")
	if _, ok := db.OldestHolder(42); ok {
		t.Error("hash entry should be gone after last holder removed")
	}
	if s := db.Stats(); s.DistinctHashes != 0 || s.Postings != 0 || s.Segments != 0 {
		t.Errorf("Stats after removal: %+v, want zeros", s)
	}
}

func TestExpireBefore(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fp(1))            // seq 1
	seqB := db.Update("b", fp(1, 2)) // seq 2
	removed := db.ExpireBefore(seqB)
	if removed != 1 {
		t.Errorf("removed=%d, want 1 (a's posting for hash 1)", removed)
	}
	if holder, ok := db.OldestHolder(1); !ok || holder != "b" {
		t.Errorf("OldestHolder(1)=%q,%v after expiry, want b,true", holder, ok)
	}
	if _, ok := db.Fingerprint("a"); ok {
		t.Error("stale segment a should have been dropped")
	}
	if _, ok := db.Fingerprint("b"); !ok {
		t.Error("fresh segment b should remain")
	}
}

func TestStats(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fp(1, 2))
	db.Update("b", fp(2, 3))
	s := db.Stats()
	if s.Segments != 2 {
		t.Errorf("Segments=%d, want 2", s.Segments)
	}
	if s.DistinctHashes != 3 {
		t.Errorf("DistinctHashes=%d, want 3", s.DistinctHashes)
	}
	if s.Postings != 4 {
		t.Errorf("Postings=%d, want 4", s.Postings)
	}
}

func TestSegmentsSorted(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("zz", fp(1))
	db.Update("aa", fp(2))
	db.Update("mm", fp(3))
	got := db.Segments()
	want := []segment.ID{"aa", "mm", "zz"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Segments()=%v, want %v", got, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New(nil, 0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				seg := segment.ID(fmt.Sprintf("w%d/p%d", worker, j%10))
				db.Update(seg, fp(uint32(j), uint32(j+1), uint32(worker*1000+j)))
				db.OldestHolder(uint32(j))
				db.AuthoritativeOverlap(seg, fp(uint32(j)))
				db.Stats()
			}
		}(i)
	}
	wg.Wait()
	if s := db.Stats(); s.Segments != 80 {
		t.Errorf("Segments=%d, want 80", s.Segments)
	}
}

func BenchmarkUpdate(b *testing.B) {
	db := New(nil, 0.5)
	hashes := make([]uint32, 50)
	for i := range hashes {
		hashes[i] = uint32(i * 2654435761)
	}
	f := fingerprint.FromHashes(hashes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Update(segment.ID(fmt.Sprintf("s%d", i%1000)), f)
	}
}

func BenchmarkAuthoritativeOverlap(b *testing.B) {
	db := New(nil, 0.5)
	for s := 0; s < 100; s++ {
		hashes := make([]uint32, 100)
		for i := range hashes {
			hashes[i] = uint32((s*37 + i) * 2654435761)
		}
		db.Update(segment.ID(fmt.Sprintf("s%d", s)), fingerprint.FromHashes(hashes))
	}
	target := fingerprint.FromHashes([]uint32{2654435761, 1013904223})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.AuthoritativeOverlap("s0", target)
	}
}
