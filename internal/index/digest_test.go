package index

import (
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
