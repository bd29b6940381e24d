package index

// Compaction equivalence: a DB that merges aggressively (tiny threshold,
// explicit Compact calls interleaved) must be observably identical to a DB
// that never merges (negative threshold pins the head-only layout),
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
	"slices"
	"sort"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// postAt records seg's postings for hs (ascending) stamped seq, with no
// DBpar change: late stamps, and the holders without an entry an image
// can hold. A ref without a born stamp is born at seq.
func postAt(db *DB, seg segment.ID, hs []uint32, seq uint64) {
	ref := db.tab.Intern(seg)
	if born := db.born.Make(ref); *born == 0 {
		*born = max(seq, 1)
	}
	db.insertPostings(postingWriter{ref: ref, segKey: segDigestKey(string(seg)), seq: seq}, hs)
}

// liveRows counts the DB's DBpar entries by walking its rows.
func liveRows(db *DB) (n int) {
	defer db.lockStripes(false)()
	db.eachRow(func(*parRow) { n++ })
	return n
}

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
			db.Update(seg, fingerprint.FromHashes(hs), nil)
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

// edgeSeg is the i-th segment, and edgeFP the fingerprint of 20 hashes at
// base (bases 10 apart share none, adjacent ones share half), of the
// universe opSeq draws from and assertSameObservable looks at.
func edgeSeg(i int) segment.ID { return segment.ID(fmt.Sprintf("doc%d#p%d", i/12, i%12)) }

func edgeFP(base int) *fingerprint.Fingerprint {
	hs := make([]uint32, 0, 20)
	for j := 0; j < 20; j++ {
		hs = append(hs, uint32(base*10+j)*0x9e3779b1)
	}
	return fingerprint.FromHashes(hs)
}

// edgeSeq replays, after the random workload and inside its hash/segment
// universe, the cases a layout that keeps the first holder inline can get
// wrong. tick runs where the compacted DB merges and the baseline does not.
func edgeSeq(db *DB, tick func(*DB)) {
	seg, fp := edgeSeg, edgeFP
	for i := 0; i < 96; i++ {
		db.RemoveSegment(seg(i))
	}

	// A multi-holder group loses its first holder: the spill promotes.
	// Then the promoted one goes too, with a third holder still spilled
	// and a fourth in the head.
	for i := 0; i < 3; i++ {
		db.Update(seg(i), fp(0), nil)
	}
	tick(db)
	db.RemoveSegment(seg(0))
	db.Update(seg(3), fp(0), nil)
	db.RemoveSegment(seg(1))
	tick(db)

	// A group crosses bigGroupMin, shrinks under it by removals and is
	// joined from the head by a new holder and by a removed one returning.
	for i := 4; i < 4+bigGroupMin+6; i++ {
		db.Update(seg(i), fp(2), nil)
	}
	tick(db)
	for i := 4; i < 14; i++ {
		db.RemoveSegment(seg(i))
	}
	db.Update(seg(80), fp(2), nil)
	db.Update(seg(4), fp(2), nil)

	// A head bucket crosses memberMapThreshold, loses its inline holder
	// and a member, and gets a repeat of a present holder.
	for i := 84; i < 84+memberMapThreshold+4; i++ {
		db.Update(seg(i), fp(4), nil)
	}
	db.RemoveSegment(seg(84))
	db.RemoveSegment(seg(90))
	db.Update(seg(85), fp(5), nil)
	db.Update(seg(85), fp(4), nil)
	tick(db)

	// Expiry cuts through the multi-holder groups.
	db.ExpireBefore(db.Now() - 30)

	// Stamps are drawn before shard locks are taken, so an older stamp can
	// reach a hash after a newer one: within the head (the late one takes
	// the inline slot), in the head under a newer run holder, and in the
	// head under a run whose every holder is newer (the head is
	// authoritative).
	late1, late2 := db.clock.Add(1), db.clock.Add(1)
	db.Update(seg(20), fp(6), nil)
	postAt(db, seg(22), fp(6).Hashes(), late2)
	postAt(db, seg(21), fp(6).Hashes(), late1)
	late3 := db.clock.Add(1)
	db.Update(seg(23), fp(6), nil)
	tick(db)
	postAt(db, seg(24), fp(6).Hashes(), late3)
	late4 := db.clock.Add(1)
	db.Update(seg(25), fp(8), nil)
	tick(db)
	postAt(db, seg(26), fp(8).Hashes(), late4)
}

// assertSameObservable checks every query API agrees between a and b over
// the hash/segment universe of the workload.
func assertSameObservable(t *testing.T, a, b *DB) {
	t.Helper()
	var hashes []uint32
	for base := 0; base < 40; base++ {
		for j := 0; j < 20; j++ {
			hashes = append(hashes, uint32(base*10+j)*0x9e3779b1)
		}
	}
	var segs []segment.ID
	for d := 0; d < 8; d++ {
		for p := 0; p < 12; p++ {
			segs = append(segs, segment.ID(fmt.Sprintf("doc%d#p%d", d, p)))
		}
	}
	assertSameObservableOver(t, a, b, hashes, segs)
}

// assertSameObservableOver is assertSameObservable over the given hashes
// and segments.
func assertSameObservableOver(t *testing.T, a, b *DB, hashes []uint32, segs []segment.ID) {
	t.Helper()
	if ea, eb := a.AppendSnapshot(nil), b.AppendSnapshot(nil); !bytes.Equal(ea, eb) {
		t.Fatalf("snapshot bytes diverged: compacted %d bytes, baseline %d bytes", len(ea), len(eb))
	}
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Fatalf("Digest diverged: compacted %+v baseline %+v", da, db)
	}
	sorted := append([]uint32(nil), hashes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if ra, rb := a.AppendOldestRefs(sorted, nil), b.AppendOldestRefs(sorted, nil); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("AppendOldestRefs: compacted %v baseline %v", ra, rb)
	}
	for _, h := range hashes {
		sa, oka := a.OldestHolder(h)
		sb, okb := b.OldestHolder(h)
		if sa != sb || oka != okb {
			t.Fatalf("OldestHolder(%#x): compacted (%q,%v) baseline (%q,%v)", h, sa, oka, sb, okb)
		}
		if ha, hb := a.Holders(h), b.Holders(h); !reflect.DeepEqual(ha, hb) {
			t.Fatalf("Holders(%#x): compacted %v baseline %v", h, ha, hb)
		}
	}
	for _, seg := range segs {
		if ca, cb := a.AuthoritativeCount(seg), b.AuthoritativeCount(seg); ca != cb {
			t.Fatalf("AuthoritativeCount(%s): compacted %d baseline %d", seg, ca, cb)
		}
		if fp, ok := b.Fingerprint(seg); ok {
			oa, la := a.AuthoritativeOverlap(seg, fp)
			ob, lb := b.AuthoritativeOverlap(seg, fp)
			if oa != ob || la != lb {
				t.Fatalf("AuthoritativeOverlap(%s): compacted (%d,%d) baseline (%d,%d)", seg, oa, la, ob, lb)
			}
		}
		fa, oka := a.Fingerprint(seg)
		fb, okb := b.Fingerprint(seg)
		if oka != okb || oka && !slices.Equal(fa.Hashes(), fb.Hashes()) {
			t.Fatalf("Fingerprint(%s): compacted (%v,%v) baseline (%v,%v)", seg, fa, oka, fb, okb)
		}
		if ta, tb := a.Threshold(seg), b.Threshold(seg); ta != tb {
			t.Fatalf("Threshold(%s): compacted %v baseline %v", seg, ta, tb)
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
				compacted := NewWithShards(nil, 0.5, shards)
				compacted.SetCompactThreshold(1) // merge once a head holds a sixteenth of its run
				baseline := NewWithShards(nil, 0.5, shards)
				baseline.SetCompactThreshold(-1) // never merge: head-only layout

				opSeq(compacted, rand.New(rand.NewSource(seed)), 600, (*DB).Compact, 7)
				opSeq(baseline, rand.New(rand.NewSource(seed)), 600, func(*DB) {}, 7)

				assertSameObservable(t, compacted, baseline)
				checkInvariants(t, compacted)
				checkInvariants(t, baseline)

				// One more merge of everything must change nothing.
				compacted.Compact()
				assertSameObservable(t, compacted, baseline)

				edgeSeq(compacted, (*DB).Compact)
				edgeSeq(baseline, func(*DB) {})
				assertSameObservable(t, compacted, baseline)
				checkInvariants(t, compacted)
				checkInvariants(t, baseline)
				// The late stamps of edgeSeq ended up in first-seen order.
				want := []segment.ID{"doc1#p9", "doc1#p10", "doc1#p8", "doc2#p0", "doc1#p11"}
				lateHash := uint32(75) // posted by the late-stamp step only
				if got := compacted.Holders(lateHash * 0x9e3779b1); !reflect.DeepEqual(got, want) {
					t.Fatalf("holders after late stamps = %v, want %v", got, want)
				}
				compacted.Compact()
				assertSameObservable(t, compacted, baseline)
			})
		}
	}
}

// TestCompactionStatsBaseline pins that a merged index reports a smaller
// modelled footprint than the head-only layout for the same contents. A
// run carries a bucket directory of up to ≈ 4 KiB, which ApproxBytes
// counts, so below a few hundred groups per run the head table is the
// smaller layout; the fixture holds ≈ 1 000 hashes per shard.
func TestCompactionStatsBaseline(t *testing.T) {
	build := func(threshold int) *DB {
		db := New(nil, 0.5)
		db.SetCompactThreshold(threshold)
		for i := 0; i < 4000; i++ {
			hs := make([]uint32, 32)
			for j := range hs {
				hs[j] = uint32(i*16+j) * 0x9e3779b1
			}
			db.Update(segment.ID(fmt.Sprintf("s#%d", i)), fingerprint.FromHashes(hs), nil)
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
