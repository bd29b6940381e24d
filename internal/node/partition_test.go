package node

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/segment"
)

func TestParseSplitRange(t *testing.T) {
	if got, err := parseSplitRange("2147483648:4294967295"); err != nil || *got != (segment.KeyRange{Lo: 1 << 31, Hi: math.MaxUint32}) {
		t.Fatalf("parseSplitRange = %+v, %v; want [2147483648, 4294967295]", got, err)
	}
	for _, bad := range []string{"", "12", "5:4", "0:4294967296", "4294967296:4294967296", "-1:5", "a:b"} {
		if r, err := parseSplitRange(bad); err == nil {
			t.Errorf("parseSplitRange(%q) = %+v, want an error", bad, r)
		}
	}
}

// twoPartitions splits the keyspace at 1<<31 between p0 and p1.
func twoPartitions(version uint64) *partition.Ring {
	return &partition.Ring{Version: version, Partitions: []partition.Partition{
		{ID: "p0", Lo: 0, Hi: 1<<31 - 1, Nodes: []string{"http://a"}},
		{ID: "p1", Lo: 1 << 31, Hi: math.MaxUint32, Nodes: []string{"http://b"}},
	}}
}

func encodeRing(t *testing.T, r *partition.Ring) []byte {
	t.Helper()
	data, err := partition.EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeRing saves r to a fresh ring file and returns its path.
func writeRing(t testing.TB, r *partition.Ring) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring")
	if err := partition.SaveRingFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

// openPartState opens partition id's state over a fresh file holding r.
func openPartState(t *testing.T, id string, r *partition.Ring, override *segment.KeyRange) (*partState, string) {
	t.Helper()
	path := writeRing(t, r)
	ps, err := newPartState(id, path, override)
	if err != nil {
		t.Fatal(err)
	}
	return ps, path
}

// segOn returns a segment whose key falls in [lo, hi].
func segOn(t *testing.T, lo, hi uint32) segment.ID {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if seg := segment.ID("doc/" + strings.Repeat("x", i) + "#p0"); segment.Key(seg) >= lo && segment.Key(seg) <= hi {
			return seg
		}
	}
	t.Fatalf("no segment with a key in [%d, %d]", lo, hi)
	return ""
}

// TestPartStateRejectsStaleRing: SetRing refuses a version that is not
// newer than the installed one and leaves the ring file as it was.
func TestPartStateRejectsStaleRing(t *testing.T) {
	ps, path := openPartState(t, "p0", twoPartitions(3), nil)
	before, _ := os.ReadFile(path)
	for _, v := range []uint64{2, 3} {
		if got, err := ps.SetRing(encodeRing(t, twoPartitions(v))); err == nil {
			t.Errorf("SetRing(v%d) over v3 = %d, want an error", v, got)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) || ps.RingVersion() != 3 {
		t.Errorf("a refused ring changed the state: file changed %v, version %d", !bytes.Equal(before, after), ps.RingVersion())
	}
}

// TestPartStatePersistsNewerRing: an installed ring is on disk, so the
// state a restart opens sees it.
func TestPartStatePersistsNewerRing(t *testing.T) {
	ps, path := openPartState(t, "p0", partition.SingleRing("p0", "http://a"), nil)
	if v, err := ps.SetRing(encodeRing(t, twoPartitions(2))); err != nil || v != 2 {
		t.Fatalf("SetRing(v2) = %d, %v", v, err)
	}
	reopened, err := newPartState("p0", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reopened.RingBytes(), encodeRing(t, twoPartitions(2))) || reopened.RingVersion() != 2 || reopened.Sole() {
		t.Errorf("reopened state: version %d, sole %v; want the persisted v2 of two partitions", reopened.RingVersion(), reopened.Sole())
	}
	if lo, hi := reopened.KeyRange(); lo != 0 || hi != 1<<31-1 {
		t.Errorf("reopened KeyRange = [%d, %d], want p0's [0, %d]", lo, hi, 1<<31-1)
	}
}

// TestPartStateRetiresSplitOverride: a split target's range comes from
// its override until a ring names its partition; from then on the ring
// is the authority.
func TestPartStateRetiresSplitOverride(t *testing.T) {
	if _, err := newPartState("p1", writeRing(t, partition.SingleRing("p0", "http://a")), nil); err == nil {
		t.Fatal("a partition the ring does not name opened without a split override")
	}
	ps, _ := openPartState(t, "p1", partition.SingleRing("p0", "http://a"), &segment.KeyRange{Lo: 1 << 30, Hi: math.MaxUint32})
	seg := segOn(t, 1<<30, 1<<31-1) // the override's, and p0's once the ring names p1
	if lo, hi := ps.KeyRange(); !ps.Resharding() || !ps.Owns(seg) || lo != 1<<30 || hi != math.MaxUint32 {
		t.Fatalf("split target: resharding %v, owns %s %v, range [%d, %d]; want the override in force", ps.Resharding(), seg, ps.Owns(seg), lo, hi)
	}
	if _, err := ps.SetRing(encodeRing(t, twoPartitions(2))); err != nil {
		t.Fatal(err)
	}
	if lo, hi := ps.KeyRange(); ps.Resharding() || ps.Owns(seg) || lo != 1<<31 || hi != math.MaxUint32 {
		t.Errorf("after the ring names p1: resharding %v, owns %s %v, range [%d, %d]; want the ring's", ps.Resharding(), seg, ps.Owns(seg), lo, hi)
	}
}

// TestPartStateFailsClosedWithoutPartition: a node whose partition a newer
// ring no longer names owns nothing and reports an empty range.
func TestPartStateFailsClosedWithoutPartition(t *testing.T) {
	ps, _ := openPartState(t, "p1", twoPartitions(1), nil)
	seg := segOn(t, 1<<31, math.MaxUint32)
	if !ps.Owns(seg) {
		t.Fatalf("p1 does not own %s in the ring that gives it the upper half", seg)
	}
	merged := partition.SingleRing("p0", "http://a")
	merged.Version = 2
	if _, err := ps.SetRing(encodeRing(t, merged)); err != nil {
		t.Fatal(err)
	}
	if lo, hi := ps.KeyRange(); ps.Owns(seg) || ps.Owns(segOn(t, 0, 1<<31-1)) || lo <= hi {
		t.Errorf("partition absent from the ring: owns segments %v/%v, range [%d, %d]; want nothing", ps.Owns(seg), ps.Owns(segOn(t, 0, 1<<31-1)), lo, hi)
	}
}
