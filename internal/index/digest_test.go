package index

import (
	"encoding/hex"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
)

// TestDigestDetectsDivergence flips single aspects of an otherwise
// identical DB and checks the combined digest moves.
func TestDigestDetectsDivergence(t *testing.T) {
	build := func() *DB {
		db := New(nil, 0.5)
		for i := 0; i < 40; i++ {
			db.Update(edgeSeg(i), fingerprint.FromHashes(edgeFP(i)), nil)
		}
		return db
	}
	base := build().Digest()

	diverged := build()
	diverged.SetThreshold(edgeSeg(0), 0.99)
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
