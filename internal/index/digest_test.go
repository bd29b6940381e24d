package index

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// digestMutation is one scripted DB mutation for the invariance suites.
type digestMutation struct {
	kind      int // 0 update, 1 setThreshold, 2 removeSegment, 3 expire
	seg       segment.ID
	hashes    []uint32
	threshold float64
	expireAt  uint64
}

// genMutations scripts a deterministic mutation stream with overlapping
// hash sets, re-observations, threshold changes, removals and an expiry.
func genMutations(seed int64, n int) []digestMutation {
	rng := rand.New(rand.NewSource(seed))
	muts := make([]digestMutation, 0, n)
	for i := 0; i < n; i++ {
		seg := segment.ID(fmt.Sprintf("doc-%d/par-%d", rng.Intn(8), rng.Intn(32)))
		switch r := rng.Intn(10); {
		case r < 6:
			hs := make([]uint32, 0, 12)
			for j := rng.Intn(12) + 1; j > 0; j-- {
				hs = append(hs, rng.Uint32()%5000)
			}
			muts = append(muts, digestMutation{kind: 0, seg: seg, hashes: hs})
		case r < 8:
			muts = append(muts, digestMutation{kind: 1, seg: seg, threshold: float64(rng.Intn(10)) / 10})
		case r < 9:
			muts = append(muts, digestMutation{kind: 2, seg: seg})
		default:
			muts = append(muts, digestMutation{kind: 3, expireAt: uint64(i / 4)})
		}
	}
	return muts
}

func applyMutation(db *DB, m digestMutation) {
	switch m.kind {
	case 0:
		db.Update(m.seg, fingerprint.FromHashes(m.hashes), nil)
	case 1:
		db.SetThreshold(m.seg, m.threshold)
	case 2:
		db.RemoveSegment(m.seg)
	case 3:
		db.ExpireBefore(m.expireAt)
	}
}

// recomputedDigest returns the ground-truth digest of db by rebuilding
// every shard digest from contents.
func recomputedDigest(db *DB) Digest {
	db.RecomputeDigests()
	return db.Digest()
}

// TestDigestMaintainedMatchesRecomputed pins the O(1) incremental
// maintenance against a full recompute after every style of mutation, in
// each physical layout: postings only ever in the heads, merged into the
// runs once a head holds a sixteenth of its run (so removals tombstone and
// promote, and expiry filters a merge), and on a DB restored from its own
// snapshot mid-stream.
func TestDigestMaintainedMatchesRecomputed(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "restored"} {
		t.Run(layout, func(t *testing.T) {
			db := New(nil, 0.5)
			switch layout {
			case "head":
				db.SetCompactThreshold(-1)
			case "compacted":
				db.SetCompactThreshold(1)
			}
			twin := New(nil, 0.5) // never merges
			twin.SetCompactThreshold(-1)
			for i, m := range genMutations(1, 400) {
				applyMutation(db, m)
				applyMutation(twin, m)
				if i%97 == 0 {
					maintained := db.Digest()
					if recomputed := recomputedDigest(db); maintained != recomputed {
						t.Fatalf("after mutation %d (%+v): maintained %+v != recomputed %+v", i, m, maintained, recomputed)
					}
					if layout == "restored" {
						db = restoredCopy(t, db)
					}
				}
			}
			maintained := db.Digest()
			if recomputed := recomputedDigest(db); maintained != recomputed {
				t.Fatalf("final: maintained %+v != recomputed %+v", maintained, recomputed)
			}
			if want := twin.Digest(); maintained != want {
				t.Fatalf("final: digest %+v, head-only twin has %+v", maintained, want)
			}
		})
	}
}

// TestDigestReplayOrderInvariant applies the same mutation stream with
// different batching/coalescing boundaries (interleaved compaction, which
// is how replica applyBatch chunking differs from the primary's live
// path) and demands identical digests — the anti-entropy soundness
// property: same logical history, any physical grouping, same digest.
func TestDigestReplayOrderInvariant(t *testing.T) {
	muts := genMutations(2, 600)

	run := func(chunk int, compactEvery int, shards int) Digest {
		db := NewWithShards(nil, 0.5, shards)
		for i := 0; i < len(muts); i += chunk {
			end := i + chunk
			if end > len(muts) {
				end = len(muts)
			}
			for _, m := range muts[i:end] {
				applyMutation(db, m)
			}
			if compactEvery > 0 && (i/chunk)%compactEvery == 0 {
				db.Compact()
			}
		}
		return db.Digest()
	}

	want := run(1, 0, DefaultShards)
	for _, tc := range []struct {
		chunk, compactEvery, shards int
	}{
		{7, 0, DefaultShards},
		{64, 1, DefaultShards},
		{1, 3, DefaultShards},
		{13, 2, 4},  // different shard count: digests must still agree
		{600, 0, 1}, // single-lock layout, one giant batch
	} {
		if got := run(tc.chunk, tc.compactEvery, tc.shards); got != want {
			t.Fatalf("chunk=%d compactEvery=%d shards=%d: digest %+v != baseline %+v",
				tc.chunk, tc.compactEvery, tc.shards, got, want)
		}
	}
}

// TestDigestDetectsDivergence flips single aspects of an otherwise
// identical DB and checks the combined digest moves.
func TestDigestDetectsDivergence(t *testing.T) {
	build := func() *DB {
		db := New(nil, 0.5)
		for _, m := range genMutations(3, 200) {
			applyMutation(db, m)
		}
		return db
	}
	base := build().Digest()

	diverged := build()
	diverged.SetThreshold("doc-0/par-0", 0.99)
	if diverged.Digest() == base {
		t.Fatal("threshold change did not move the digest")
	}

	diverged = build()
	if segs := diverged.Segments(); len(segs) == 0 {
		t.Fatal("scripted DB tracks no segments")
	} else {
		diverged.RemoveSegment(segs[0])
	}
	if diverged.Digest() == base {
		t.Fatal("segment removal did not move the digest")
	}

	diverged = build()
	diverged.Update("doc-9/par-9", fingerprint.FromHashes([]uint32{1, 2, 3}), nil)
	if diverged.Digest() == base {
		t.Fatal("extra update did not move the digest")
	}
}

// TestDigestSnapshotRoundTrip checks the binary snapshot round-trip
// preserves the digest (restore rebuilds it from contents).
func TestDigestSnapshotRoundTrip(t *testing.T) {
	db := New(nil, 0.5)
	for _, m := range genMutations(4, 300) {
		applyMutation(db, m)
	}
	want := db.Digest()

	restored := New(nil, 0.5)
	if err := restored.LoadSnapshot(db.AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if got := restored.Digest(); got != want {
		t.Fatalf("binary round-trip digest %+v != %+v", got, want)
	}
}

// TestDigestCodecGolden pins the wire frame bytes: a digest frame is part
// of the replication protocol, so its encoding must never drift silently.
func TestDigestCodecGolden(t *testing.T) {
	d := Digest{Clock: 0x0102030405060708, Postings: 0x1122334455667788,
		Pars: 0x99aabbccddeeff00, Combined: 0xdeadbeefcafef00d}
	got := hex.EncodeToString(d.AppendEncode(nil))
	const want = "42464449475354310108070605040302018877665544332211" +
		"00ffeeddccbbaa990df0fecaefbeadde17e79c59"
	if got != want {
		t.Fatalf("digest frame drifted:\n got %s\nwant %s", got, want)
	}
	back, err := DecodeDigest(d.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %+v != %+v", back, d)
	}
}

// TestDigestCodecRejectsCorruption flips every byte of a valid frame and
// demands a decode error each time (plus length checks).
func TestDigestCodecRejectsCorruption(t *testing.T) {
	d := Digest{Clock: 42, Postings: 7, Pars: 9, Combined: 11}
	frame := d.AppendEncode(nil)
	if len(frame) != EncodedDigestLen {
		t.Fatalf("frame length %d != EncodedDigestLen %d", len(frame), EncodedDigestLen)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := DecodeDigest(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, err := DecodeDigest(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame not detected")
	}
	if _, err := DecodeDigest(append(frame, 0)); err == nil {
		t.Fatal("oversized frame not detected")
	}
	if _, err := DecodeDigest(nil); err == nil {
		t.Fatal("empty frame not detected")
	}
}
