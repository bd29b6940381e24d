package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
}

// noEntryImage hand-encodes a codec-2 payload in which edgeSeg(0), with
// no DBpar entry, holds every hash of edgeFP(0) stamped 2, and
// edgeSeg(1), updated at 5, holds them all after it.
func noEntryImage() []byte {
	const clock, updated = 9, 5
	b := binary.LittleEndian.AppendUint64([]byte{snapshotCodecVersion}, clock)
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
// logical state: different shard counts, merge histories and a full
// encode→load→encode cycle must produce identical bytes.
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
			b := header(snapshotCodecVersion, clock)
			b = append(b, 1, 0, 1, 'a') // segment table: ["a"], sharing nothing
			b = append(b, 1, 0)         // one DBpar entry, ref 0, default threshold
			b = binary.AppendUvarint(b, updated)
			b = append(b, 1)                // a fingerprint of one hash
			b = append(b, 1, 1)             // one distinct hash, one posting
			b = append(b, 7, 0|postStamped) // hash 7: ref 0, last, in the fingerprint
			b = binary.AppendVarint(b, int64(updated-seq))
			return append(b, 0) // nothing unposted
		},
		"codec 1": func(clock, updated, seq uint64) []byte {
			b := header(legacyCodecVersion, clock)
			b = append(b, 1, 1, 'a') // segment table: ["a"]
			b = append(b, 1, 0)      // one DBpar entry, ref 0
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
			b = binary.AppendUvarint(b, updated)
			b = append(b, 1, 7)    // one hash: 7
			b = append(b, 1, 1)    // one distinct hash, one posting
			b = append(b, 7, 1, 0) // hash 7, group of one, ref 0
			return binary.AppendUvarint(b, seq)
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
