package index

// Concurrency stress for the lock-striped DB, designed to run under `go
// test -race` (the Makefile's check target). Many goroutines update
// overlapping and disjoint segments while expiry and removal run; at
// quiescence the structural invariants must hold:
//
//   - per hash, postings are in ascending Seq order with at most one
//     posting per segment, and each tier's inline holder is its oldest
//     live one — so the authoritative holder is read without a scan;
//   - the O(1) Stats counters equal a full recount;
//   - every surviving DBpar entry's latest fingerprint has a posting (or
//     an older holder) for each of its hashes.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// stressFP builds a deterministic fingerprint whose hash set overlaps with
// neighbouring generations: generation g of worker w shares hashes with
// other workers (shared pool) and keeps worker-private hashes too.
func stressFP(worker, generation int) *fingerprint.Fingerprint {
	hs := make([]uint32, 0, 24)
	for j := 0; j < 12; j++ {
		// Shared pool: same values across workers → contended buckets.
		hs = append(hs, uint32((generation%5)*16+j)*0x9e3779b1)
	}
	for j := 0; j < 12; j++ {
		// Private: unique per worker → disjoint buckets.
		hs = append(hs, uint32(worker*100000+generation*16+j)*0x85ebca6b+1)
	}
	return fingerprint.FromHashes(hs)
}

func TestConcurrentUpdateExpireInvariants(t *testing.T) {
	t.Parallel()
	const (
		workers     = 8
		generations = 150
	)
	db := New(nil, 0.5)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				// Two segments per worker: one long-lived (overlapping
				// hash pool) and one churning (removed every few rounds).
				stable := segment.ID(fmt.Sprintf("w%d/stable#p0", w))
				churn := segment.ID(fmt.Sprintf("w%d/churn#p%d", w, g%3))
				db.Update(stable, stressFP(w, g), nil)
				db.Update(churn, stressFP(w+workers, g), nil)
				if g%7 == 3 {
					db.RemoveSegment(churn)
				}
				// Queries race with the writers.
				db.OldestHolder(uint32((g % 5) * 16 * 0x9e3779b1))
				db.AuthoritativeOverlap(stable, stressFP(w, g))
				db.Stats()
			}
		}(w)
	}
	// Expiry runs concurrently with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			now := db.Now()
			if now > 200 {
				db.ExpireBefore(now - 200)
			}
		}
	}()
	wg.Wait()

	checkInvariants(t, db)

	// Final expiry of everything must leave a coherent empty DBhash.
	db.ExpireBefore(db.Now() + 1)
	checkInvariants(t, db)
	if s := db.Stats(); s.Postings != 0 || s.DistinctHashes != 0 || s.Segments != 0 {
		t.Fatalf("full expiry left non-empty stats: %+v", s)
	}
}

// checkInvariants asserts the quiescent structural invariants listed in
// the file comment, over the merged view of each shard's mutable head and
// compacted run.
func checkInvariants(t *testing.T, db *DB) {
	t.Helper()
	var distinct, postings, headN, dead int
	var runBytes, headRows int64
	var ps []posting
	seen := map[uint32]bool{}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		runBytes += sh.run.bytes()
		headRows += int64(len(sh.head.rows))
		shardHead, tagged, rows, wide := 0, 0, 0, 0
		for i, row := range sh.head.rows {
			if row.ref == emptyRow {
				continue
			}
			h := row.hash
			rows++
			if got := sh.head.find(h); got != i {
				t.Errorf("shard %d: head row %d of hash %#x is found at %d", si, i, h, got)
			}
			if row.off == wideOff {
				wide++
				if _, ok := sh.head.wide[h]; !ok {
					t.Errorf("hash %#x: head row sends to a wide stamp it lacks", h)
				}
			}
			shardHead++
			b := sh.over[h]
			if row.ref&moreBit == 0 {
				if b != nil {
					t.Errorf("hash %#x: overflow bucket behind an untagged head slot", h)
				}
				continue
			}
			tagged++
			if b == nil || len(b.postings) == 0 {
				t.Errorf("hash %#x: tagged head slot without overflow postings", h)
				continue
			}
			shardHead += len(b.postings)
			if b.postings[0].seq < sh.head.seq(i) {
				t.Errorf("hash %#x: head slot is not the oldest head holder", h)
			}
			if b.members != nil {
				if len(b.members) != len(b.postings) {
					t.Errorf("hash %#x: member set size %d != postings %d", h, len(b.members), len(b.postings))
				}
				for _, p := range b.postings {
					if _, ok := b.members[p.ref]; !ok {
						t.Errorf("hash %#x: posting %d missing from member set", h, p.ref)
					}
				}
			}
		}
		if rows != sh.head.n || wide != len(sh.head.wide) {
			t.Errorf("shard %d: head table counts %d rows (%d wide stamps), holds %d (%d)", si, sh.head.n, len(sh.head.wide), rows, wide)
		}
		if tagged != len(sh.over) {
			t.Errorf("shard %d: %d overflow buckets for %d tagged head slots", si, len(sh.over), tagged)
		}
		if shardHead != sh.headPostings {
			t.Errorf("shard %d: headPostings counter %d != recount %d", si, sh.headPostings, shardHead)
		}
		headN += shardHead
		shardDead := 0
		for g := range sh.run.lo {
			if sh.run.first(g) == tombstoneRef {
				shardDead++
			}
		}
		for k := range sh.run.moreHashes {
			if sh.run.moreRef(k) == tombstoneRef {
				shardDead++
			}
		}
		if shardDead != sh.dead {
			t.Errorf("shard %d: dead counter %d != recount %d", si, sh.dead, shardDead)
		}
		dead += shardDead
		if r := &sh.run; sh.dead == 0 && len(r.lo) > 0 {
			// A merge widens the columns only as far as the head's codes
			// need, and one that drops postings narrows them.
			var maxRef, maxStamp uint32
			for g := range r.lo {
				maxRef = max(maxRef, refCode(r.first(g)|moreBit))
				if c := r.stamps.at(g); c != wideSeq {
					maxStamp = max(maxStamp, c)
				}
			}
			for k := range r.moreHashes {
				maxRef = max(maxRef, refCode(r.moreRef(k)|moreBit))
				if c := r.moreStamps.at(k); c != wideSeq {
					maxStamp = max(maxStamp, c)
				}
			}
			if rw, sw := codeWidth(maxRef), codeWidth(maxStamp); r.refs.width != rw || r.moreRefs.width != rw || r.stamps.width != sw || r.moreStamps.width != sw {
				t.Errorf("shard %d: ref columns %d and %d bits wide, stamp columns %d and %d, want %d and %d", si,
					r.refs.width, r.moreRefs.width, r.stamps.width, r.moreStamps.width, rw, sw)
			}
		}
		for k := 1; k < len(sh.run.moreHashes); k++ {
			if sh.run.moreHashes[k-1] > sh.run.moreHashes[k] {
				t.Errorf("shard %d: spill hashes out of order at %d", si, k)
			}
		}
		if d := sh.run.dir; len(sh.run.lo) > 0 && (len(d) < 2 || d[0] != 0 || int(d[len(d)-1]) != len(sh.run.lo) || !slices.IsSorted(d)) {
			t.Errorf("shard %d: directory %v does not partition %d groups", si, d, len(sh.run.lo))
		}
		spilled := 0
		var prev uint32
		for c := (runCursor{r: &sh.run}); c.ok(); c.next() {
			g, h := c.g, c.hash()
			if g > 0 && prev >= h {
				t.Errorf("shard %d: run hashes out of order at group %d", si, g)
			}
			prev = h
			if db.hashShardIdx(h) != si || sh.run.find(h) != g {
				t.Errorf("shard %d: group %d's hash %#x is found at %d in shard %d", si, g, h, sh.run.find(h), db.hashShardIdx(h))
			}
			lo, hi := sh.run.more(h)
			spilled += hi - lo
			first := sh.run.first(g)
			if first != tombstoneRef && (first&moreBit != 0) != (hi > lo) {
				t.Errorf("hash %#x: more tag %v with %d spilled postings", h, first&moreBit != 0, hi-lo)
			}
			for k := lo; k < hi; k++ {
				if sh.run.moreRef(k) == tombstoneRef {
					continue
				}
				if first == tombstoneRef || sh.run.moreSeq(k) < sh.run.firstSeq(g) {
					t.Errorf("hash %#x: inline holder is not the oldest live one of its group", h)
				}
			}
		}
		if spilled != len(sh.run.moreHashes) {
			t.Errorf("shard %d: %d spilled postings belong to no group", si, len(sh.run.moreHashes)-spilled)
		}
		sh.walkHashesLocked(func(h uint32, g, i int) {
			ps = sh.appendPostingsLocked(h, g, i, ps[:0])
			if len(ps) == 0 {
				return // fully tombstoned group awaiting merge
			}
			distinct++
			postings += len(ps)
			clear(seen)
			for i, p := range ps {
				if seen[p.ref] {
					t.Errorf("hash %#x: duplicate posting for %s", h, db.tab.ID(p.ref))
				}
				seen[p.ref] = true
				if i > 0 && ps[i-1].seq > p.seq {
					t.Errorf("hash %#x: postings out of Seq order at %d", h, i)
				}
			}
			if oldest, seq, ok := db.oldestLocked(sh, h, true); !ok || oldest != ps[0].ref || seq != ps[0].seq {
				t.Errorf("hash %#x: oldest = (%d, %d, %v), want %+v", h, oldest, seq, ok, ps[0])
			}
		})
		sh.mu.RUnlock()
	}
	if n := db.runBytes.Load(); n != runBytes {
		t.Errorf("run bytes counter %d != recount %d", n, runBytes)
	}
	if n := db.headRows.Load(); n != headRows {
		t.Errorf("head rows counter %d != recount %d", n, headRows)
	}
	segs := liveRows(db)
	s := db.Stats()
	if s.DistinctHashes != distinct || s.Postings != postings || s.Segments != segs ||
		s.HeadPostings != headN || s.Tombstones != dead {
		t.Errorf("counters drifted: Stats %+v, recount distinct=%d postings=%d segments=%d head=%d dead=%d",
			s, distinct, postings, segs, headN, dead)
	}
}

// liveRows counts the DB's DBpar entries by walking its rows.
func liveRows(db *DB) (n int) {
	defer db.lockStripes(false)()
	db.eachRow(func(*parRow) { n++ })
	return n
}

// TestConcurrentExportImport races AppendSnapshot against writers: every
// image taken mid-flight, and the final one, must load into a fresh DB
// with its invariants intact, and the final one must carry exactly the
// source's contents.
func TestConcurrentExportImport(t *testing.T) {
	t.Parallel()
	db := New(nil, 0.5)
	load := func(blob []byte) *DB {
		restored := New(nil, 0.5)
		if err := loadSnapshot(restored, blob); err != nil {
			t.Error(err)
		}
		checkInvariants(t, restored)
		return restored
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < 60; g++ {
				db.Update(segment.ID(fmt.Sprintf("w%d#p%d", w, g%4)), stressFP(w, g), nil)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			load(snapshot(db))
		}
	}()
	wg.Wait()

	restored := load(snapshot(db))
	got, want := restored.Stats(), db.Stats()
	if got.Postings != want.Postings || got.DistinctHashes != want.DistinctHashes || got.Segments != want.Segments {
		t.Fatalf("import drifted: got %+v want %+v", got, want)
	}
	if got, want := restored.Digest(), db.Digest(); got != want {
		t.Fatalf("import digest %+v, want %+v", got, want)
	}
}

// logicalState is what a snapshot image must reproduce: the codec-
// independent digest plus the logical counters.
type logicalState struct {
	digest                       Digest
	segments, distinct, postings int
}

func stateOf(db *DB) logicalState {
	s := db.Stats()
	return logicalState{db.Digest(), s.Segments, s.DistinctHashes, s.Postings}
}

// TestSnapshotBesideMaintenance takes an image while index maintenance that
// no journal barrier covers — the compaction ticker, the expiry janitor —
// or a plain writer runs on the same DB. Every image must load, and must
// be a state the source was in: for the per-segment operations (atomic
// under their stripe lock) one of the states between two calls; for
// Compact the one logical state it never changes; for ExpireBefore, whose
// pass is atomic per shard only, a state from which finishing the same
// pass lands exactly where the source did.
func TestSnapshotBesideMaintenance(t *testing.T) {
	t.Parallel()
	const (
		segs   = 5_000
		rounds = 20
		batch  = 200
	)
	id := func(i int) segment.ID { return segment.ID(fmt.Sprintf("doc%d#p%d", i/16, i%16)) }
	// One private hash and one shared by eight neighbours per segment, so
	// groups have several holders and removals promote younger ones.
	fp := func(i int) *fingerprint.Fingerprint {
		return fingerprint.FromHashes([]uint32{uint32(i)*0x9e3779b1 + 1, uint32(i/8) * 0x85ebca6b})
	}
	// beside starts mutate, takes one image while it runs, waits for it
	// and returns the image loaded into a fresh DB.
	beside := func(db *DB, mutate func()) *DB {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			mutate()
		}()
		img := snapshot(db)
		<-done
		restored := New(nil, 0)
		if err := loadSnapshot(restored, img); err != nil {
			t.Fatalf("image taken beside maintenance does not load: %v", err)
		}
		return restored
	}

	// Head-only: the first merge of a shard interns every segment in it,
	// which is what an encoder without its own cut trips over.
	db := New(nil, 0.5)
	db.headOnly = true
	for i := 0; i < segs; i++ {
		db.Update(id(i), fp(i), nil)
	}
	next := segs
	for round := 0; round < rounds; round++ {
		// Compact: logical contents never move.
		before := stateOf(db)
		if got := stateOf(beside(db, db.Compact)); got != before {
			t.Fatalf("round %d, Compact: image %+v, source %+v", round, got, before)
		}

		// Per-segment operations: the mutator records every state it
		// leaves the DB in; the image must be one of them.
		for _, op := range []struct {
			name string
			do   func(i int)
		}{
			{"Update", func(i int) { db.Update(id(next+i), fp(next+i), nil) }},
			{"RemoveSegment", func(i int) { db.RemoveSegment(id(next - segs/2 + i)) }},
		} {
			seen := map[logicalState]bool{stateOf(db): true}
			got := stateOf(beside(db, func() {
				for i := 0; i < batch; i++ {
					op.do(i)
					seen[stateOf(db)] = true
				}
			}))
			if !seen[got] {
				t.Fatalf("round %d, %s: image %+v is no state the source was in", round, op.name, got)
			}
		}
		next += batch

		// ExpireBefore: drops the oldest postings and merges the round's
		// new head, shard by shard.
		cut := db.Now() - uint64(segs) + batch
		restored := beside(db, func() { db.ExpireBefore(cut) })
		restored.ExpireBefore(cut)
		if got, after := stateOf(restored), stateOf(db); got != after {
			t.Fatalf("round %d, ExpireBefore: finishing the pass on the image gives %+v, source reached %+v", round, got, after)
		}
	}
	checkInvariants(t, db)
}
