package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

// buildWorkloadDB replays a deterministic workload; threshold controls the
// compaction policy so the same state can be built in different physical
// layouts.
func buildWorkloadDB(seed int64, shards, threshold int) *DB {
	db := NewWithShards(nil, 0.5, shards)
	db.SetCompactThreshold(threshold)
	opSeq(db, rand.New(rand.NewSource(seed)), 500, (*DB).Compact, 11)
	return db
}

// snapshotCases are the states the codec has to get right: the random
// workload, the inline-holder edges of edgeSeq, and one small state per
// place where the image stores a fact indirectly — a fingerprint as flags
// on postings, a stamp as a distance below its holder's updated, a
// threshold only when it is not the default. check, when set, proves the
// state really is the case its name says.
var snapshotCases = []struct {
	name  string
	build func(db *DB, tick func(*DB))
	check func(t *testing.T, db *DB)
}{
	{name: "workload", build: func(db *DB, tick func(*DB)) {
		opSeq(db, rand.New(rand.NewSource(1)), 500, tick, 11)
	}},
	{name: "workload and edges", build: func(db *DB, tick func(*DB)) {
		opSeq(db, rand.New(rand.NewSource(2)), 500, tick, 11)
		edgeSeq(db, tick)
	}},
	{name: "fingerprint hashes whose postings expired", build: func(db *DB, tick func(*DB)) {
		db.Update(edgeSeg(0), edgeFP(0), nil)
		db.Update(edgeSeg(2), edgeFP(4), nil)
		tick(db)
		cut := db.Now() + 1
		db.Update(edgeSeg(0), edgeFP(1), nil) // keeps half of the first version's hashes
		db.Update(edgeSeg(1), edgeFP(1), nil)
		// Shrunk to hashes it had posted already, the segment posts nothing
		// new and the expiry leaves it a fingerprint without one posting.
		db.Update(edgeSeg(2), fingerprint.FromHashes(edgeFP(4).Hashes()[:7]), nil)
		db.ExpireBefore(cut)
	}, check: func(t *testing.T, db *DB) {
		h := edgeFP(1).Hashes()[0] // find one that is in both versions
		for _, h = range edgeFP(1).Hashes() {
			if edgeFP(0).Contains(h) {
				break
			}
		}
		fp, ok := db.Fingerprint(edgeSeg(0))
		if holders := db.Holders(h); !ok || !fp.Contains(h) || !reflect.DeepEqual(holders, []segment.ID{edgeSeg(1)}) {
			t.Fatalf("hash %#x: holders %v; want it in the first segment's fingerprint and held by the second only", h, holders)
		}
	}},
	{name: "postings without a DBpar entry", build: func(db *DB, tick func(*DB)) {
		// What an image written before RemoveSegment took every version's
		// postings can hold; nothing the DB does makes it any more.
		if err := db.LoadSnapshot(noEntryImage()); err != nil {
			panic(err)
		}
		db.Update(edgeSeg(2), edgeFP(0), nil)
		tick(db)
	}, check: func(t *testing.T, db *DB) {
		holders := db.Holders(edgeFP(0).Hashes()[0])
		if _, ok := db.Fingerprint(edgeSeg(0)); ok || len(holders) != 3 || holders[0] != edgeSeg(0) {
			t.Fatalf("holders %v, DBpar entry %v; want the segment without an entry oldest of three", holders, ok)
		}
	}},
	{name: "thresholds", build: func(db *DB, tick func(*DB)) {
		db.SetThreshold(edgeSeg(0), 0.9) // an entry that is only a threshold
		db.Update(edgeSeg(1), edgeFP(0), nil)
		db.SetThreshold(edgeSeg(1), 0.25)
		db.Update(edgeSeg(2), edgeFP(0), nil)
		db.SetThreshold(edgeSeg(2), db.DefaultThreshold())
	}},
	{name: "posted union larger than the fingerprint", build: func(db *DB, tick func(*DB)) {
		db.Update(edgeSeg(0), edgeFP(0), nil)
		db.Update(edgeSeg(1), edgeFP(1), nil)
		tick(db)
		db.Update(edgeSeg(0), edgeFP(1), nil)
		db.Update(edgeSeg(0), edgeFP(4), nil)
	}},
	{name: "wide stamps on both sides of a clock-floor jump", build: func(db *DB, tick func(*DB)) {
		db.Update(edgeSeg(0), edgeFP(0), nil)
		db.Update(edgeSeg(1), edgeFP(0), nil)
		tick(db)
		db.SetClockFloor(1 << 40)
		db.Update(edgeSeg(2), edgeFP(0), nil)
		db.Update(edgeSeg(0), edgeFP(1), nil) // updated 2^40 above its first postings
		// An old stamp arriving late for a segment without an entry, and a
		// posting stamped after its holder's last update.
		postAt(db, edgeSeg(3), edgeFP(1).Hashes(), 3)
		postAt(db, edgeSeg(1), edgeFP(2).Hashes(), db.clock.Add(1))
	}},
	{name: "multi-holder groups with the inline holder tombstoned", build: func(db *DB, tick func(*DB)) {
		for i := 0; i < 4; i++ {
			db.Update(edgeSeg(i), edgeFP(0), nil)
		}
		tick(db)
		db.SetCompactThreshold(-1) // keep the tombstones
		db.RemoveSegment(edgeSeg(0))
		db.RemoveSegment(edgeSeg(2))
		db.Update(edgeSeg(4), edgeFP(0), nil)
	}},
	{name: "repeated tails after single-holder groups", build: func(db *DB, tick func(*DB)) {
		// The first segment leads every group; edgeFP(4)'s hashes, its
		// alone, fall between those of edgeFP(0), which two later segments
		// also hold: each later group repeats the tail its first spelled.
		db.Update(edgeSeg(0), unionFP(edgeFP(0), edgeFP(4)), nil)
		tick(db)
		db.Update(edgeSeg(1), edgeFP(0), nil)
		db.Update(edgeSeg(2), edgeFP(0), nil)
	}, check: func(t *testing.T, db *DB) {
		assertHolders(t, db, edgeFP(0).Hashes(), edgeSeg(0), edgeSeg(1), edgeSeg(2))
		assertHolders(t, db, edgeFP(4).Hashes(), edgeSeg(0))
		if !interleaved(edgeFP(0).Hashes(), edgeFP(4).Hashes()) {
			t.Fatal("the single-holder hashes do not fall between the repeated ones")
		}
	}},
	{name: "tails that differ in one ref", build: func(db *DB, tick func(*DB)) {
		// Behind the first two holders of edgeFP(0), alternate hashes have
		// a third holder and a fourth: no tail is the one before it.
		db.Update(edgeSeg(0), edgeFP(0), nil)
		db.Update(edgeSeg(1), edgeFP(0), nil)
		tick(db)
		even, odd := alternate(edgeFP(0).Hashes())
		db.Update(edgeSeg(2), fingerprint.FromHashes(even), nil)
		db.Update(edgeSeg(3), fingerprint.FromHashes(odd), nil)
	}, check: func(t *testing.T, db *DB) {
		even, odd := alternate(edgeFP(0).Hashes())
		assertHolders(t, db, even, edgeSeg(0), edgeSeg(1), edgeSeg(2))
		assertHolders(t, db, odd, edgeSeg(0), edgeSeg(1), edgeSeg(3))
	}},
	{name: "stale and stamped later holders", build: func(db *DB, tick func(*DB)) {
		// Four holders of edgeFP(0), then the third is edited to a superset
		// (its postings of edgeFP(0) are now below its updated) and the
		// fourth to other hashes (its postings left its fingerprint): the
		// tail cannot repeat and is spelled out with flags.
		for i := 0; i < 4; i++ {
			db.Update(edgeSeg(i), edgeFP(0), nil)
		}
		tick(db)
		db.Update(edgeSeg(2), unionFP(edgeFP(0), edgeFP(4)), nil)
		db.Update(edgeSeg(3), edgeFP(8), nil)
	}, check: func(t *testing.T, db *DB) {
		h := edgeFP(0).Hashes()[0]
		assertHolders(t, db, []uint32{h}, edgeSeg(0), edgeSeg(1), edgeSeg(2), edgeSeg(3))
		if fp, _ := db.Fingerprint(edgeSeg(3)); fp.Contains(h) {
			t.Fatal("the fourth holder's fingerprint still holds the hash")
		}
		ref, _ := db.tab.Lookup(edgeSeg(2))
		sh := &db.hashShards[db.hashShardIdx(h)]
		sh.mu.RLock()
		postings := sh.appendPostingsLocked(h, sh.run.find(h), sh.head.find(h), nil)
		sh.mu.RUnlock()
		if p := postings[2]; p.ref != ref || p.seq >= db.rowOf(ref).updated {
			t.Fatalf("the third posting %+v is not the third segment's below its updated", p)
		}
	}},
	{name: "empty parts of the hash space and the top hash", build: func(db *DB, tick func(*DB)) {
		// Hashes at both edges of the first, second, fourth and last 1/64;
		// the third and the 59 after the fourth are empty.
		db.Update(edgeSeg(0), fingerprint.FromHashes([]uint32{0, 1, 1<<26 - 1, 1 << 26, 3 << 26, 4<<26 - 1, 63 << 26, math.MaxUint32 - 1, math.MaxUint32}), nil)
		tick(db)
		db.Update(edgeSeg(1), fingerprint.FromHashes([]uint32{0, math.MaxUint32}), nil)
	}, check: func(t *testing.T, db *DB) {
		assertHolders(t, db, []uint32{0, math.MaxUint32}, edgeSeg(0), edgeSeg(1))
		assertHolders(t, db, []uint32{1 << 26, 63 << 26}, edgeSeg(0))
	}},
	{name: "a table of 2^6 segments", build: func(db *DB, tick func(*DB)) { tableOf(db, tick, 64) },
		check: func(t *testing.T, db *DB) { assertTable(t, db, 64) }},
	{name: "a table of 2^6+1 segments", build: func(db *DB, tick func(*DB)) { tableOf(db, tick, 65) },
		check: func(t *testing.T, db *DB) { assertTable(t, db, 65) }},
	{name: "more repeated postings than the image has bits", build: func(db *DB, tick func(*DB)) {
		// 64 segments share 400 hashes: as repeats, 25 600 postings in
		// about 2 KB. The encoder spells tails out to keep within a posting
		// a bit, which is what the decoder holds an image to.
		hs := make([]uint32, 400)
		for j := range hs {
			hs[j] = uint32(j) * 0x9e3779b1
		}
		for i := 0; i < 64; i++ {
			db.Update(edgeSeg(i), fingerprint.FromHashes(hs), nil)
			if i == 32 {
				tick(db)
			}
		}
	}, check: func(t *testing.T, db *DB) {
		if n, bits := db.Stats().Postings, 8*len(db.AppendSnapshot(nil)); n != 64*400 || n > bits {
			t.Fatalf("%d postings in an image of %d bits; want 25600, within the bits", n, bits)
		}
	}},
}

// unionFP is the fingerprint of a's and b's hashes.
func unionFP(a, b *fingerprint.Fingerprint) *fingerprint.Fingerprint {
	return fingerprint.FromHashes(append(append([]uint32(nil), a.Hashes()...), b.Hashes()...))
}

// alternate splits ascending hashes into those at even and at odd places.
func alternate(hs []uint32) (even, odd []uint32) {
	for i, h := range hs {
		if i%2 == 0 {
			even = append(even, h)
		} else {
			odd = append(odd, h)
		}
	}
	return even, odd
}

// interleaved reports whether some hash of b lies between two of a.
func interleaved(a, b []uint32) bool {
	for _, h := range b {
		if h > a[0] && h < a[len(a)-1] {
			return true
		}
	}
	return false
}

// assertHolders fails unless every hash is held by exactly segs, oldest
// first.
func assertHolders(t *testing.T, db *DB, hs []uint32, segs ...segment.ID) {
	t.Helper()
	for _, h := range hs {
		if got := db.Holders(h); !reflect.DeepEqual(got, segs) {
			t.Fatalf("hash %#x: holders %v, want %v", h, got, segs)
		}
	}
}

// tableOf has n segments each hold a hash of its own and one they share,
// so one group spells out a tail of n−1 refs at the table's width.
func tableOf(db *DB, tick func(*DB), n int) {
	for i := 0; i < n; i++ {
		db.Update(edgeSeg(i), fingerprint.FromHashes([]uint32{uint32(i+1) * 0x9e3779b1, 0xdeadbeef}), nil)
		if i == n/2 {
			tick(db)
		}
	}
}

func assertTable(t *testing.T, db *DB, n int) {
	t.Helper()
	if got := len(db.Holders(0xdeadbeef)); got != n || db.Stats().Segments != n {
		t.Fatalf("%d holders of the shared hash, %d segments; want %d", got, db.Stats().Segments, n)
	}
}

// noEntryImage hand-encodes a codec 2 payload in which edgeSeg(0), with
// no DBpar entry, holds every hash of edgeFP(0) stamped 2, and
// edgeSeg(1), updated at 5, holds them all after it.
func noEntryImage() []byte {
	const clock, updated = 9, 5
	b := binary.LittleEndian.AppendUint64([]byte{bytewiseCodecVersion}, clock)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = append(b, 2)
	b = wire.AppendFrontCoded(b, "", string(edgeSeg(0)))
	b = wire.AppendFrontCoded(b, string(edgeSeg(0)), string(edgeSeg(1)))
	hs := edgeFP(0).Hashes()
	b = append(b, 1, 1<<1) // one DBpar entry: ref 1, default threshold
	b = binary.AppendUvarint(b, updated)
	b = binary.AppendUvarint(b, uint64(len(hs)))
	b = binary.AppendUvarint(b, uint64(len(hs)))
	b = binary.AppendUvarint(b, uint64(2*len(hs)))
	prev := uint32(0)
	for _, h := range hs {
		b = binary.AppendUvarint(b, uint64(h-prev))
		prev = h
		b = append(b, 0<<postFlagBits|postMore|postStale|postStamped)
		b = binary.AppendVarint(b, clock-2) // its base is the clock
		b = append(b, 1<<postFlagBits)
	}
	return append(b, 0) // nothing unposted
}

// TestSnapshotRoundTrip: every case, built merging once a head holds a
// sixteenth of its run and built head-only, encodes to the same bytes; the
// image restores — into a DB with another shard count — to a state with
// the same digest, the same answers from every query API, the same clock
// and default threshold, sound invariants, and the same image again.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range snapshotCases {
		t.Run(tc.name, func(t *testing.T) {
			compacted := NewWithShards(nil, 0.5, DefaultShards)
			compacted.SetCompactThreshold(1)
			tc.build(compacted, (*DB).Compact)
			headOnly := NewWithShards(nil, 0.5, 4)
			headOnly.SetCompactThreshold(-1)
			tc.build(headOnly, func(*DB) {})
			if tc.check != nil {
				tc.check(t, compacted)
			}
			blob := compacted.AppendSnapshot(nil)
			if other := headOnly.AppendSnapshot(nil); !bytes.Equal(blob, other) {
				t.Fatalf("snapshot bytes depend on physical layout: %d vs %d bytes", len(blob), len(other))
			}
			restored := NewWithShards(nil, 0, 16)
			if err := restored.LoadSnapshot(blob); err != nil {
				t.Fatal(err)
			}
			assertSameObservable(t, restored, compacted)
			checkInvariants(t, restored)
			if tc.check != nil {
				tc.check(t, restored)
			}
			if restored.Now() != compacted.Now() {
				t.Fatalf("clock drifted: %d != %d", restored.Now(), compacted.Now())
			}
			if restored.DefaultThreshold() != compacted.DefaultThreshold() {
				t.Fatalf("default threshold drifted")
			}
		})
	}
}

// TestSnapshotDeterministic pins that encoding is a pure function of the
// logical state: the random workload and every snapshot case, built at 1,
// 64 and 256 shards, merging and head-only, encode to identical bytes, and
// a full encode→load→encode cycle is a fixed point.
func TestSnapshotDeterministic(t *testing.T) {
	a := buildWorkloadDB(7, DefaultShards, 1)
	b := buildWorkloadDB(7, 4, -1) // head-only layout, different stripes
	ab := a.AppendSnapshot(nil)
	bb := b.AppendSnapshot(nil)
	if !reflect.DeepEqual(ab, bb) {
		t.Fatalf("snapshot bytes depend on physical layout: %d vs %d bytes", len(ab), len(bb))
	}
	c := New(nil, 0)
	if err := c.LoadSnapshot(ab); err != nil {
		t.Fatal(err)
	}
	cb := c.AppendSnapshot(nil)
	if !reflect.DeepEqual(ab, cb) {
		t.Fatalf("encode→load→encode not a fixed point: %d vs %d bytes", len(ab), len(cb))
	}

	for _, tc := range snapshotCases {
		var want []byte
		for _, shards := range []int{1, 64, 256} {
			for _, threshold := range []int{1, -1} {
				db := NewWithShards(nil, 0.5, shards)
				db.SetCompactThreshold(threshold)
				tick := func(*DB) {}
				if threshold > 0 {
					tick = (*DB).Compact
				}
				tc.build(db, tick)
				blob := db.AppendSnapshot(nil)
				if want == nil {
					want = blob
				} else if !bytes.Equal(blob, want) {
					t.Fatalf("%s: %d shards, compact threshold %d: %d bytes, want the %d of the first build", tc.name, shards, threshold, len(blob), len(want))
				}
				again := NewWithShards(nil, 0, shards)
				if err := again.LoadSnapshot(blob); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if got := again.AppendSnapshot(nil); !bytes.Equal(got, blob) {
					t.Fatalf("%s: %d shards: encode→load→encode not a fixed point", tc.name, shards)
				}
			}
		}
	}
}

// TestSnapshotRepeatCostsNothing: a group whose later holders repeat those
// of the last group its first holder led costs what a single-holder group
// does, so two images that differ only in how many groups share one tail
// have the same length.
func TestSnapshotRepeatCostsNothing(t *testing.T) {
	hs := edgeFP(0).Hashes()
	shared, once := New(nil, 0.5), New(nil, 0.5)
	for _, db := range []*DB{shared, once} {
		db.Update(edgeSeg(0), edgeFP(0), nil)
	}
	for i := 1; i <= 2; i++ {
		shared.Update(edgeSeg(i), edgeFP(0), nil)                    // every hash: one tail, spelled, then repeated
		once.Update(edgeSeg(i), fingerprint.FromHashes(hs[:1]), nil) // the first hash only
	}
	a, b := shared.AppendSnapshot(nil), once.AppendSnapshot(nil)
	if shared.Stats().Postings != 3*len(hs) || once.Stats().Postings != len(hs)+2 || len(a) != len(b) {
		t.Fatalf("%d postings in %d bytes against %d in %d; want %d against %d in the same bytes",
			shared.Stats().Postings, len(a), once.Stats().Postings, len(b), 3*len(hs), len(hs)+2)
	}
}

// expansionImage hand-encodes a codec 3 payload of n segments, each with a
// DBpar entry declaring declared hashes, and a declared posting total:
// one group spells out all n holders, and repeats more groups repeat it.
func expansionImage(n int, declared, total uint64, repeats int) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{snapshotCodecVersion}, 1)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = binary.AppendUvarint(b, uint64(n))
	for i, prev := 0, ""; i < n; i++ {
		seg := fmt.Sprintf("s%05d", i)
		b, prev = wire.AppendFrontCoded(b, prev, seg), seg
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		b = append(b, 0, 1) // the next ref, default threshold; updated at the clock
		b = binary.AppendUvarint(b, declared)
	}
	b = binary.AppendUvarint(b, uint64(repeats+1))
	b = binary.AppendUvarint(b, total)
	width := refWidth(n)
	b = wire.AppendBits(b, func(gs *wire.BitWriter) {
		gs.Write(0, width)
		gs.Write(0b11, 2) // spelled out
		gs.Write(0, 1)    // plain
		gs.Gamma(uint64(n - 1))
		for ref := 1; ref < n; ref++ {
			gs.Write(uint64(ref), width)
		}
		for i := 0; i < repeats; i++ {
			gs.Write(0, width)
			gs.Write(0b01, 2) // repeat
		}
	})
	b = wire.AppendBits(b, func(hs *wire.BitWriter) {
		hs.Gamma(uint64(repeats + 2)) // hashes 0, 1, 2, … in the first 1/64
		hs.Write(0, riceParamBits)
		for i := 0; i <= repeats; i++ {
			hs.Rice(0, 0)
		}
		for i := 1; i < 1<<hashPartBits; i++ {
			hs.Gamma(1)
		}
	})
	return append(b, 0) // nothing unposted
}

// TestSnapshotRefusesExpansion: a repeat costs a few bits however many
// postings it stands for, so a crafted image could declare and decode far
// more postings than it has bytes. The decoder refuses declared lengths
// and totals past the payload's bits, and what it allocates before it
// fails grows with the payload, not with what the image declares: the
// first case would otherwise decode 5 million postings.
func TestSnapshotRefusesExpansion(t *testing.T) {
	const n, repeats = 256, 20000 // 255 × 20 000 postings in ~30 KB
	for _, tc := range []struct {
		name            string
		declared, total uint64
	}{
		{"huge declared lengths", math.MaxUint32, n * (repeats + 1)},
		{"a huge total", 1, math.MaxUint64},
		{"lengths and total within the payload's bits", 512, 200000},
	} {
		data := expansionImage(n, tc.declared, tc.total, repeats)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := New(nil, 0.5).LoadSnapshot(data)
		runtime.ReadMemStats(&after)
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("%s: err=%v, want *wire.Error", tc.name, err)
		}
		// At most a posting a bit, at some 40 bytes allocated a posting.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*48*uint64(len(data)) {
			t.Fatalf("%s: %d bytes allocated decoding %d (%v)", tc.name, alloc, len(data), err)
		}
	}
}

// TestExportImportRoundTrip is the smallest case of the one export/import
// route — AppendSnapshot out, LoadSnapshot in — checked field by field.
func TestExportImportRoundTrip(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("a", fingerprint.FromHashes([]uint32{1, 2, 3}), nil)
	db.Update("b", fingerprint.FromHashes([]uint32{2, 4}), nil)
	db.SetThreshold("b", 0.8)

	db2 := New(nil, 0.9)
	if err := db2.LoadSnapshot(db.AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if db2.DefaultThreshold() != 0.5 {
		t.Errorf("default threshold=%v, want 0.5", db2.DefaultThreshold())
	}
	if got := db2.Threshold("b"); got != 0.8 {
		t.Errorf("threshold(b)=%v, want 0.8", got)
	}
	// First-seen order preserved: a is still authoritative for hash 2.
	if holder, ok := db2.OldestHolder(2); !ok || holder != "a" {
		t.Errorf("OldestHolder(2)=%q,%v, want a,true", holder, ok)
	}
	// Same logical contents, loaded fully compacted.
	got, want := db2.Stats(), db.Stats()
	if got.Segments != want.Segments || got.DistinctHashes != want.DistinctHashes ||
		got.Postings != want.Postings || got.HeadPostings != 0 {
		t.Errorf("stats=%+v, want the contents of %+v with an empty head", got, want)
	}
	if got, want := db2.Digest(), db.Digest(); got != want {
		t.Errorf("digest=%+v, want %+v", got, want)
	}
	// Clock continues past the loaded value.
	if seq := db2.Update("c", fingerprint.FromHashes([]uint32{9}), nil); seq <= db.Now() {
		t.Errorf("clock did not resume: %d <= %d", seq, db.Now())
	}
}

func TestExportDeterministic(t *testing.T) {
	db := New(nil, 0.5)
	db.Update("z", fingerprint.FromHashes([]uint32{5, 6}), nil)
	db.Update("a", fingerprint.FromHashes([]uint32{5, 7}), nil)
	if x, y := db.AppendSnapshot(nil), db.AppendSnapshot(nil); !bytes.Equal(x, y) {
		t.Fatal("two encodes of one state differ")
	}
}

// TestImportRejectsInconsistentClock hand-encodes the smallest payload of
// each documented layout — one segment, one DBpar entry, one posting — and
// requires the decoder to refuse stamps from the future of its own clock.
func TestImportRejectsInconsistentClock(t *testing.T) {
	header := func(version byte, clock uint64) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{version}, clock)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	}
	for name, encode := range map[string]func(clock, updated, seq uint64) []byte{
		"codec 2": func(clock, updated, seq uint64) []byte {
			b := header(bytewiseCodecVersion, clock)
			b = append(b, 1, 0, 1, 'a') // segment table: ["a"], sharing nothing
			b = append(b, 1, 0)         // one DBpar entry, ref 0, default threshold
			b = binary.AppendUvarint(b, updated)
			b = append(b, 1)                // a fingerprint of one hash
			b = append(b, 1, 1)             // one distinct hash, one posting
			b = append(b, 7, 0|postStamped) // hash 7: ref 0, last, in the fingerprint
			b = binary.AppendVarint(b, int64(updated-seq))
			return append(b, 0) // nothing unposted
		},
		"codec 3": func(clock, updated, seq uint64) []byte {
			b := header(snapshotCodecVersion, clock)
			b = append(b, 1, 0, 1, 'a') // segment table: ["a"], sharing nothing
			b = append(b, 1, 0)         // one DBpar entry, ref 0, default threshold
			b = binary.AppendUvarint(b, updated)
			b = append(b, 1, 1, 1)                            // a fingerprint of one hash; one distinct hash, one posting
			b = wire.AppendBits(b, func(gs *wire.BitWriter) { // ref 0 is zero bits wide
				gs.Write(0, 1) // a single holder
				d := int64(updated - seq)
				if distance := uint64(d<<1) ^ uint64(d>>63); distance == 0 {
					gs.Write(0, 1) // plain
				} else {
					gs.Write(1, 1)           // flagged:
					gs.Write(flagStamped, 2) // in the fingerprint, stamped
					gs.Gamma(distance)
				}
			})
			b = wire.AppendBits(b, func(hs *wire.BitWriter) {
				hs.Gamma(2)    // the first 1/64 holds one hash,
				hs.Write(2, 5) // Rice parameter 2,
				hs.Rice(7, 2)  // at offset 7
				for i := 1; i < 64; i++ {
					hs.Gamma(1) // the rest hold none
				}
			})
			return append(b, 0) // nothing unposted
		},
	} {
		db := New(nil, 0.5)
		if err := db.LoadSnapshot(encode(5, 5, 4)); err != nil {
			t.Fatalf("%s: consistent payload rejected: %v", name, err)
		}
		if refs := db.AppendOldestRefs([]uint32{7}, nil); len(refs) != 1 || refs[0].Seg != "a" || refs[0].Seq != 4 {
			t.Errorf("%s: oldest holder of the one hash = %+v, want a at 4", name, refs)
		}
		if fp, ok := db.Fingerprint("a"); !ok || !reflect.DeepEqual(fp.Hashes(), []uint32{7}) {
			t.Errorf("%s: fingerprint = %v, want [7]", name, fp)
		}
		var we *wire.Error
		if err := New(nil, 0.5).LoadSnapshot(encode(1, 1, 5)); !errors.As(err, &we) {
			t.Errorf("%s: posting seq beyond clock: err=%v, want *wire.Error", name, err)
		}
		if err := New(nil, 0.5).LoadSnapshot(encode(1, 9, 1)); !errors.As(err, &we) {
			t.Errorf("%s: segment updated beyond clock: err=%v, want *wire.Error", name, err)
		}
	}
}

// TestLoadSnapshotRejectsCorruption flips or truncates bytes across the
// payload and requires a typed *wire.Error (never a panic) and an untouched
// (fully reset, not partially loaded) DB.
func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	db := buildWorkloadDB(13, DefaultShards, 1)
	blob := db.AppendSnapshot(nil)
	// Sanity: pristine blob loads.
	if err := New(nil, 0).LoadSnapshot(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), blob...)
		switch trial % 3 {
		case 0: // truncate
			mut = mut[:rng.Intn(len(mut))]
		case 1: // bit flip
			i := rng.Intn(len(mut))
			mut[i] ^= 1 << uint(rng.Intn(8))
		case 2: // garbage tail
			mut = append(mut, byte(rng.Intn(256)))
		}
		restored := New(nil, 0)
		err := restored.LoadSnapshot(mut)
		if err == nil {
			// A flip can produce a different but well-formed snapshot
			// (e.g. a threshold bit); that is fine — CRC framing above
			// this layer catches it. What is not fine is partial state
			// with invariants broken.
			checkInvariants(t, restored)
			continue
		}
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("trial %d: error is not a *wire.Error: %v", trial, err)
		}
		if s := restored.Stats(); s.Postings != 0 || s.Segments != 0 || s.DistinctHashes != 0 {
			t.Fatalf("trial %d: rejected load left partial state: %+v", trial, s)
		}
	}
}

func BenchmarkLoadSnapshot(b *testing.B) {
	db := New(nil, 0.5)
	for i := 0; i < 2000; i++ {
		hs := make([]uint32, 40)
		for j := range hs {
			hs[j] = uint32(i*20+j) * 0x9e3779b1
		}
		db.Update(segment.ID(fmt.Sprintf("doc%d#p%d", i/10, i%10)), fingerprint.FromHashes(hs), nil)
	}
	blob := db.AppendSnapshot(nil)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored := New(nil, 0)
		if err := restored.LoadSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
}
