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
)

// buildWorkloadDB replays a deterministic workload; threshold controls the
// compaction policy so the same state can be built in different physical
// layouts.
func buildWorkloadDB(seed int64, shards, threshold int) *DB {
	db := NewWithShards(0.5, shards)
	db.SetCompactThreshold(threshold)
	opSeq(db, rand.New(rand.NewSource(seed)), 500, (*DB).Compact, 11)
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db := buildWorkloadDB(seed, DefaultShards, 1)
		blob := db.AppendSnapshot(nil)
		restored := NewWithShards(0, 16) // different shard count on purpose
		if err := restored.LoadSnapshot(blob); err != nil {
			t.Fatal(err)
		}
		assertSameObservable(t, restored, db)
		checkInvariants(t, restored)
		if restored.Now() != db.Now() {
			t.Fatalf("clock drifted: %d != %d", restored.Now(), db.Now())
		}
		if restored.DefaultThreshold() != db.DefaultThreshold() {
			t.Fatalf("default threshold drifted")
		}
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
	c := New(0)
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
	db := New(0.5)
	db.Update("a", fingerprint.FromHashes([]uint32{1, 2, 3}))
	db.Update("b", fingerprint.FromHashes([]uint32{2, 4}))
	db.SetThreshold("b", 0.8)

	db2 := New(0.9)
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
	if seq := db2.Update("c", fingerprint.FromHashes([]uint32{9})); seq <= db.Now() {
		t.Errorf("clock did not resume: %d <= %d", seq, db.Now())
	}
}

func TestExportDeterministic(t *testing.T) {
	db := New(0.5)
	db.Update("z", fingerprint.FromHashes([]uint32{5, 6}))
	db.Update("a", fingerprint.FromHashes([]uint32{5, 7}))
	if x, y := db.AppendSnapshot(nil), db.AppendSnapshot(nil); !bytes.Equal(x, y) {
		t.Fatal("two encodes of one state differ")
	}
}

// TestImportRejectsInconsistentClock hand-encodes the smallest payload of
// the documented layout — one segment, one DBpar entry, one posting — and
// requires the decoder to refuse stamps from the future of its own clock.
func TestImportRejectsInconsistentClock(t *testing.T) {
	encode := func(clock, updated, seq uint64) []byte {
		b := []byte{snapshotCodecVersion}
		b = binary.LittleEndian.AppendUint64(b, clock)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		b = append(b, 1, 1, 'a') // segment table: ["a"]
		b = append(b, 1, 0)      // one DBpar entry, ref 0
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		b = binary.AppendUvarint(b, updated)
		b = append(b, 1, 7)    // one hash: 7
		b = append(b, 1, 1)    // one distinct hash, one posting
		b = append(b, 7, 1, 0) // hash 7, group of one, ref 0
		return binary.AppendUvarint(b, seq)
	}
	if err := New(0.5).LoadSnapshot(encode(5, 5, 5)); err != nil {
		t.Fatalf("consistent payload rejected: %v", err)
	}
	var ce *CodecError
	if err := New(0.5).LoadSnapshot(encode(1, 1, 5)); !errors.As(err, &ce) {
		t.Errorf("posting seq beyond clock: err=%v, want CodecError", err)
	}
	if err := New(0.5).LoadSnapshot(encode(1, 9, 1)); !errors.As(err, &ce) {
		t.Errorf("segment updated beyond clock: err=%v, want CodecError", err)
	}
}

// TestLoadSnapshotRejectsCorruption flips or truncates bytes across the
// payload and requires a typed CodecError (never a panic) and an untouched
// (fully reset, not partially loaded) DB.
func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	db := buildWorkloadDB(13, DefaultShards, 1)
	blob := db.AppendSnapshot(nil)
	// Sanity: pristine blob loads.
	if err := New(0).LoadSnapshot(blob); err != nil {
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
		restored := New(0)
		err := restored.LoadSnapshot(mut)
		if err == nil {
			// A flip can produce a different but well-formed snapshot
			// (e.g. a threshold bit); that is fine — CRC framing above
			// this layer catches it. What is not fine is partial state
			// with invariants broken.
			checkInvariants(t, restored)
			continue
		}
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("trial %d: error is not a CodecError: %v", trial, err)
		}
		if s := restored.Stats(); s.Postings != 0 || s.Segments != 0 || s.DistinctHashes != 0 {
			t.Fatalf("trial %d: rejected load left partial state: %+v", trial, s)
		}
	}
}

func BenchmarkLoadSnapshot(b *testing.B) {
	db := New(0.5)
	for i := 0; i < 2000; i++ {
		hs := make([]uint32, 40)
		for j := range hs {
			hs[j] = uint32(i*20+j) * 0x9e3779b1
		}
		db.Update(segment.ID(fmt.Sprintf("doc%d#p%d", i/10, i%10)), fingerprint.FromHashes(hs))
	}
	blob := db.AppendSnapshot(nil)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored := New(0)
		if err := restored.LoadSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
}
