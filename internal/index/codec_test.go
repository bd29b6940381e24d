package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

// noEntryImage hand-encodes a payload in which edgeSeg(0), with no DBpar
// entry, holds every hash of edgeFP(0) stamped 2, and edgeSeg(1), updated
// at 5, holds them all after it.
func noEntryImage() []byte {
	const clock, updated = 9, 5
	b := binary.LittleEndian.AppendUint64([]byte{snapshotCodecVersion}, clock)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = append(b, 2)
	b = wire.AppendFrontCoded(b, "", string(edgeSeg(0)))
	b = wire.AppendFrontCoded(b, string(edgeSeg(0)), string(edgeSeg(1)))
	hs := edgeFP(0)
	b = append(b, 1, 1<<1) // one DBpar entry: ref 1, default threshold
	b = binary.AppendVarint(b, updated)
	b = binary.AppendUvarint(b, uint64(len(hs)))
	b = binary.AppendUvarint(b, uint64(len(hs)))
	b = binary.AppendUvarint(b, uint64(2*len(hs)))
	b = wire.AppendBits(b, func(gs *wire.BitWriter) { // refs are one bit wide
		stamps := distanceCode{adaptive: true}
		for range hs {
			gs.Write(0, 1)    // first holder: ref 0,
			gs.Write(0b11, 2) // spelled out,
			gs.Write(1, 1)    // flagged,
			gs.Gamma(1)       // one later holder,
			gs.Write(1, 1)    // ref 1
			gs.Write(flagStale|flagStamped, 2)
			stamps.write(gs, (clock-2)<<1) // ref 0's base is the clock
			gs.Write(0, 2)                 // ref 1: in its fingerprint at its base
		}
	})
	b = wire.AppendBits(b, func(w *wire.BitWriter) { writeHashStream(w, hs) })
	return append(b, 0) // nothing unposted
}

// TestSnapshotRepeatCostsNothing: a group whose later holders repeat those
// of the last group its first holder led costs what a single-holder group
// does, so two images that differ only in how many groups share one tail
// have the same length.
func TestSnapshotRepeatCostsNothing(t *testing.T) {
	hs := edgeFP(0)
	shared, once := New(nil, 0.5), New(nil, 0.5)
	for _, db := range []*DB{shared, once} {
		db.Update(edgeSeg(0), fingerprint.FromHashes(hs), nil)
	}
	for i := 1; i <= 2; i++ {
		shared.Update(edgeSeg(i), fingerprint.FromHashes(hs), nil)   // every hash: one tail, spelled, then repeated
		once.Update(edgeSeg(i), fingerprint.FromHashes(hs[:1]), nil) // the first hash only
	}
	a, b := snapshot(shared), snapshot(once)
	if shared.Stats().Postings != 3*len(hs) || once.Stats().Postings != len(hs)+2 || len(a) != len(b) {
		t.Fatalf("%d postings in %d bytes against %d in %d; want %d against %d in the same bytes",
			shared.Stats().Postings, len(a), once.Stats().Postings, len(b), 3*len(hs), len(hs)+2)
	}
}

// expansionImage hand-encodes a payload of n segments, each with a DBpar
// entry declaring declared hashes, and a declared posting total: one group
// spells out all n holders, and repeats more groups repeat it.
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
		b = append(b, 0, 0) // the next ref, default threshold; updated at the clock,
		if i == 0 {
			b[len(b)-1] = 1 << 1 // 1 above the 0 before the first entry
		}
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
		err := loadSnapshot(New(nil, 0.5), data)
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

// TestImportRejectsInconsistentClock hand-encodes the smallest payload —
// one segment, one DBpar entry, one posting — and requires the decoder to
// refuse stamps from the future of its own clock.
func TestImportRejectsInconsistentClock(t *testing.T) {
	encode := func(clock, updated, seq uint64) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{snapshotCodecVersion}, clock)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		b = append(b, 1, 0, 1, 'a') // segment table: ["a"], sharing nothing
		b = append(b, 1, 0)         // one DBpar entry, ref 0, default threshold
		b = binary.AppendVarint(b, int64(updated))
		b = append(b, 1, 1, 1)                            // a fingerprint of one hash; one distinct hash, one posting
		b = wire.AppendBits(b, func(gs *wire.BitWriter) { // ref 0 is zero bits wide
			gs.Write(0, 1) // a single holder
			d := int64(updated - seq)
			if distance := uint64(d<<1) ^ uint64(d>>63); distance == 0 {
				gs.Write(0, 1) // plain
			} else {
				gs.Write(1, 1)           // flagged:
				gs.Write(flagStamped, 2) // in the fingerprint, stamped
				gs.Gamma(distance)       // the stream's first distance: k = 0
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
	}
	db := New(nil, 0.5)
	if err := loadSnapshot(db, encode(5, 5, 4)); err != nil {
		t.Fatalf("consistent payload rejected: %v", err)
	}
	if refs := db.AppendOldestRefs([]uint32{7}, nil); len(refs) != 1 || refs[0].Seg != "a" || refs[0].Seq != 4 {
		t.Errorf("oldest holder of the one hash = %+v, want a at 4", refs)
	}
	if fp, ok := db.Fingerprint("a"); !ok || !reflect.DeepEqual(fp.Hashes(), []uint32{7}) {
		t.Errorf("fingerprint = %v, want [7]", fp)
	}
	var we *wire.Error
	if err := loadSnapshot(New(nil, 0.5), encode(1, 1, 5)); !errors.As(err, &we) {
		t.Errorf("posting seq beyond clock: err=%v, want *wire.Error", err)
	}
	if err := loadSnapshot(New(nil, 0.5), encode(1, 9, 1)); !errors.As(err, &we) {
		t.Errorf("segment updated beyond clock: err=%v, want *wire.Error", err)
	}
}

// workloadDB is a DB of overlapping fingerprints, merged now and then,
// with removals, thresholds and an expiry: an image with every kind of
// fact in it.
func workloadDB() *DB {
	db := New(nil, 0.5)
	for i := 0; i < 400; i++ {
		switch seg := edgeSeg(i * 7 % 96); i % 10 {
		case 7:
			db.RemoveSegment(seg)
		case 8:
			db.SetThreshold(seg, 0.25)
		case 9:
			db.Compact()
		default:
			db.Update(seg, fingerprint.FromHashes(edgeFP(i*13%40)), nil)
		}
	}
	db.ExpireBefore(db.Now() / 4)
	return db
}

// snapshot is db's image, without the segment table AppendSnapshot also
// returns.
func snapshot(db *DB) []byte {
	img, _ := db.AppendSnapshot(nil)
	return img
}

// loadSnapshot restores db from data as a state restore does: prepare,
// which validates without touching db, then commit.
func loadSnapshot(db *DB, data []byte) error {
	p, err := db.PrepareSnapshot(data)
	if err != nil {
		return err
	}
	db.CommitSnapshot(p)
	return nil
}

// TestLoadSnapshotRejectsCorruption flips or truncates bytes across the
// payload and requires a typed *wire.Error (never a panic) and an untouched
// (fully reset, not partially loaded) DB.
func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	t.Parallel()
	blob := snapshot(workloadDB())
	// Sanity: pristine blob loads.
	if err := loadSnapshot(New(nil, 0), blob); err != nil {
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
		err := loadSnapshot(restored, mut)
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

	// A group stream cut inside a distance's low bits: "a" holds hashes 7
	// and 9, each stamped 2^19 below its updated. The first distance takes
	// k to 20, so the second is γ(1) and 20 low bits, of which the cut
	// stream holds 3, and the zero padding of its last byte 3 more.
	cut := func(lowBits uint) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{snapshotCodecVersion}, 1<<21)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		b = append(b, 1, 0, 1, 'a', 1, 0)                 // segment table ["a"]; one DBpar entry, ref 0, default threshold
		b = binary.AppendVarint(b, 1<<21)                 // updated at the clock
		b = append(b, 2, 2, 2)                            // a fingerprint of two hashes; two distinct hashes, two postings
		b = wire.AppendBits(b, func(gs *wire.BitWriter) { // ref 0 is zero bits wide
			stamps := distanceCode{adaptive: true}
			gs.Write(0b1_0, 2) // a single holder, flagged:
			gs.Write(flagStamped, 2)
			stamps.write(gs, 1<<20)
			gs.Write(0b1_0, 2)
			gs.Write(flagStamped, 2)
			if k := stamps.k(); k != 20 {
				t.Fatalf("k = %d after a distance of 2^20, want 20", k)
			}
			gs.Gamma(1)
			gs.Write(1<<20-1, lowBits)
		})
		b = wire.AppendBits(b, func(hs *wire.BitWriter) {
			hs.Gamma(3)
			hs.Write(2, riceParamBits)
			hs.Rice(7, 2) // 7,
			hs.Rice(1, 2) // then 9
			for i := 1; i < 1<<hashPartBits; i++ {
				hs.Gamma(1)
			}
		})
		return append(b, 0) // nothing unposted
	}
	if err := loadSnapshot(New(nil, 0.5), cut(20)); err != nil {
		t.Fatalf("the uncut payload is rejected: %v", err)
	}
	restored := New(nil, 0.5)
	var we *wire.Error
	if err := loadSnapshot(restored, cut(3)); !errors.As(err, &we) || we.Reason != "truncated posting stamp distance" {
		t.Fatalf("cut inside a distance's low bits: err=%v, want a *wire.Error for the truncated distance", err)
	}
	if s := restored.Stats(); s.Postings != 0 || s.Segments != 0 {
		t.Fatalf("rejected load left partial state: %+v", s)
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
	blob := snapshot(db)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored := New(nil, 0)
		if err := loadSnapshot(restored, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEditHistoryDistancesFitTheirMean: 2 000 segments each edited 30
// times, one new hash an edit, the edits interleaved as the paper's
// keystroke regime leaves them (§4.3): every hash but a segment's newest is
// stamped below its holder's updated, at a distance of up to 58 000 ticks.
// Coded at the stream's running mean those distances must take under two
// thirds of the bits γ takes for them (1.04 Mbit against 1.79 here), and
// the payload must be at least a tenth smaller than the same payload with
// γ distances (388 KB against 482 KB).
func TestEditHistoryDistancesFitTheirMean(t *testing.T) {
	const segs, edits = 2000, 30
	db := New(nil, 0.5)
	fps := make([][]uint32, segs)
	stamp := map[uint32]uint64{}
	updated := make([]uint64, segs)
	for e := 0; e < edits; e++ {
		for i := range fps {
			h := uint32(i*edits+e+1) * 0x9e3779b1 // distinct for every (segment, edit)
			fps[i] = append(fps[i], h)
			updated[i] = db.Update(edgeSeg(i), fingerprint.FromHashes(fps[i]), nil)
			stamp[h] = updated[i]
		}
	}
	// Each hash has one holder, so the stream carries the distances in hash
	// order; the γ bits do not depend on the order.
	var hashes []uint32
	holder := map[uint32]int{}
	for i, fp := range fps {
		for _, h := range fp {
			hashes, holder[h] = append(hashes, h), i
		}
	}
	slices.Sort(hashes)
	var gammaBits, adaptiveBits uint64
	stamps := distanceCode{adaptive: true}
	for _, h := range hashes {
		d := int64(updated[holder[h]] - stamp[h])
		if d == 0 {
			continue
		}
		zz := uint64(d<<1) ^ uint64(d>>63)
		gammaBits += 2*uint64(bits.Len64(zz)) - 1
		k := stamps.k()
		adaptiveBits += 2*uint64(bits.Len64((zz-1)>>k+1)) - 1 + uint64(k)
		stamps.add(zz)
	}
	img := snapshot(db)
	withGamma := len(img) + int(gammaBits/8) - int(adaptiveBits/8)
	t.Logf("%d stamped postings: %d bits in γ, %d at the running mean; payload %d B, %d B with γ distances",
		len(hashes)-segs, gammaBits, adaptiveBits, len(img), withGamma)
	if 3*adaptiveBits > 2*gammaBits || 10*len(img) > 9*withGamma {
		t.Errorf("the distances take %d bits against γ's %d, the payload %d B against %d: want under two thirds and 90 %%",
			adaptiveBits, gammaBits, len(img), withGamma)
	}
}
