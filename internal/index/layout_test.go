package index

// Tests of the inline-first-holder layout's edges: the full uint64 stamp
// range behind packed distance columns and 32-bit head offsets,
// allocation-free head inserts, and
// exact-size columns after a restore of a skewed hash distribution.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// winnowedDB indexes n generated ~600-byte paragraphs under the paper's
// fingerprint parameters. Winnowing selects the minimum hash of each
// window, so the hashes crowd towards zero — the distribution the
// top-bit hash shards actually see, unlike the uniform hashes most tests
// here draw.
func winnowedDB(tb testing.TB, n int) *DB {
	tb.Helper()
	gen := dataset.NewTextGen(11, 20000)
	db := New(nil, 0.5)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for sb.Len() < 600 {
			sb.WriteString(gen.Sentence(8, 16))
			sb.WriteByte(' ')
		}
		fp, err := fingerprint.Compute(sb.String(), fingerprint.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		db.Update(segment.ID(fmt.Sprintf("wiki/book%d#p%d", i/50, i%50)), fp, nil)
	}
	return db
}

// columns returns the total length and capacity of the shard runs' columns,
// a packed column counting its words.
func columns(db *DB) (length, capacity int) {
	for si := range db.hashShards {
		r := &db.hashShards[si].run
		length += len(r.lo)
		capacity += cap(r.lo)
		for _, col := range [][]uint32{r.moreHashes, r.dir} {
			length += len(col)
			capacity += cap(col)
		}
		for _, col := range []packed{r.refs, r.stamps, r.moreRefs, r.moreStamps} {
			length += len(col.words)
			capacity += cap(col.words)
		}
	}
	return length, capacity
}

// TestRestoreLeavesNoDeadCapacity: a restored run lives until its shard's
// next merge — on a standby, possibly for ever — so LoadSnapshot must size
// every shard's columns from the shard's real share of the hashes, which
// for winnowed hashes is nowhere near total/shards.
func TestRestoreLeavesNoDeadCapacity(t *testing.T) {
	db := winnowedDB(t, 4000)
	db.Compact()
	restored := restoredCopy(t, db)
	for name, d := range map[string]*DB{"compacted": db, "restored": restored} {
		length, capacity := columns(d)
		t.Logf("%s: %d column entries in %d of capacity (%.1f %% spare)", name, length, capacity, 100*float64(capacity-length)/float64(length))
		if length == 0 || float64(capacity) > 1.02*float64(length) {
			t.Errorf("%s: run columns hold %d entries in %d of capacity, want at most 2 %% spare", name, length, capacity)
		}
	}
	assertSameObservableOver(t, restored, db, nil, nil)
}

// TestShardOccupancy records how unevenly winnowed hashes fill the top-bit
// hash shards. It asserts nothing: the shard map is part of the
// anti-entropy digest contract (ShardDigests), so rebalancing it is its
// own change, and this is its baseline (DESIGN.md §6).
func TestShardOccupancy(t *testing.T) {
	db := winnowedDB(t, 4000)
	total, nonEmpty, largest := 0, 0, 0
	var row []string
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		n := sh.head.n + len(sh.run.lo)
		total += n
		if n > 0 {
			nonEmpty++
		}
		largest = max(largest, n)
		row = append(row, fmt.Sprint(n))
	}
	t.Logf("%d distinct hashes over %d shards: %d non-empty, largest holds %.1f %%", total, len(db.hashShards), nonEmpty, 100*float64(largest)/float64(total))
	t.Logf("hashes per shard: %s", strings.Join(row, " "))
}

// TestSeqRangeAcrossClockFloor: SetClockFloor takes a router's Lamport
// stamp, so two holders of one hash can be first seen 2^40 apart. Every
// layout must return the exact stamps, keep first-seen order and expire on
// the right side of the jump, like a head-only twin that never merges.
func TestSeqRangeAcrossClockFloor(t *testing.T) {
	const jump = uint64(1) << 40
	hashes := []uint32{0x10, 0x11, 0x12, 0x13, 0x14} // one shard
	segs := []segment.ID{"old", "new", "newer"}
	build := func(merge bool) *DB {
		db := New(nil, 0.5)
		db.SetCompactThreshold(-1)
		tick := func() {
			if merge {
				db.Compact()
			}
		}
		db.Update("old", fingerprint.FromHashes([]uint32{0x10, 0x11, 0x12}), nil)
		tick()
		db.SetClockFloor(jump)
		db.Update("new", fingerprint.FromHashes([]uint32{0x11, 0x12, 0x13}), nil)
		tick()
		db.Update("newer", fingerprint.FromHashes([]uint32{0x12, 0x14}), nil)
		return db
	}
	twin := build(false)
	layouts := map[string]*DB{"merged": build(true), "restored": restoredCopy(t, twin)}
	layouts["merged again"] = build(true)
	layouts["merged again"].Compact()

	check := func(step string, wantRefs []OldestRef, wantHolders []segment.ID) {
		t.Helper()
		if got := twin.AppendOldestRefs(hashes, nil); !reflect.DeepEqual(got, wantRefs) {
			t.Fatalf("%s: twin oldest refs = %+v, want %+v", step, got, wantRefs)
		}
		if got := twin.Holders(0x12); !reflect.DeepEqual(got, wantHolders) {
			t.Fatalf("%s: twin Holders(0x12) = %v, want %v", step, got, wantHolders)
		}
		for name, db := range layouts {
			t.Run(step+"/"+name, func(t *testing.T) {
				assertSameObservableOver(t, db, twin, hashes, segs)
				checkInvariants(t, db)
			})
		}
	}

	check("built", []OldestRef{
		{0, "old", 1}, {1, "old", 1}, {2, "old", 1}, {3, "new", jump + 1}, {4, "newer", jump + 2},
	}, []segment.ID{"old", "new", "newer"})

	// The first holder goes: a holder from the far side of the jump is
	// promoted, exact stamp and all.
	for _, db := range append([]*DB{twin}, layouts["merged"], layouts["restored"], layouts["merged again"]) {
		db.RemoveSegment("old")
	}
	check("first holder removed", []OldestRef{
		{1, "new", jump + 1}, {2, "new", jump + 1}, {3, "new", jump + 1}, {4, "newer", jump + 2},
	}, []segment.ID{"new", "newer"})

	// Expiry on either side of the jump.
	for name, cut := range map[string]uint64{"below": jump, "above": jump + 2} {
		dbs := []*DB{build(false), build(true), restoredCopy(t, build(true))}
		var states [][]byte
		for _, db := range dbs {
			db.ExpireBefore(cut)
			checkInvariants(t, db)
			states = append(states, db.AppendSnapshot(nil))
		}
		if !bytes.Equal(states[0], states[1]) || !bytes.Equal(states[0], states[2]) {
			t.Errorf("ExpireBefore %s the jump: layouts disagree", name)
		}
		want := []segment.ID{"new", "newer"}
		if name == "above" {
			want = []segment.ID{"newer"}
		}
		for _, db := range dbs {
			if got := db.Holders(0x12); !reflect.DeepEqual(got, want) {
				t.Errorf("ExpireBefore %s the jump: Holders(0x12) = %v, want %v", name, got, want)
			}
		}
	}
}

// TestHeadInsertAllocatesNoObjectPerHash: a novel single-holder hash costs
// a head-table row, not a heap object — what is left is the table growing.
func TestHeadInsertAllocatesNoObjectPerHash(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const novel = 1000
	db := NewWithShards(nil, 0.5, 1)
	db.SetCompactThreshold(-1)
	sh := &db.hashShards[0]
	w := postingWriter{ref: db.tab.Intern("wiki/alloc#p0"), segKey: segDigestKey("wiki/alloc#p0"), seq: db.clock.Add(1)}
	next := uint32(0)
	insert := func() {
		for i := 0; i < novel; i++ {
			next++
			db.shardInsertLocked(sh, next*0x9e3779b1, w)
		}
	}
	insert() // warm the shard: the head table exists
	allocs := testing.AllocsPerRun(20, insert)
	t.Logf("%.1f allocations per %d novel hashes", allocs, novel)
	if allocs > novel/20 {
		t.Errorf("inserting %d novel hashes allocates %.1f objects, want table growth only", novel, allocs)
	}
}

// TestDBparRowSize pins a DBpar row at 40 bytes: the fingerprint's slice
// header, the stamp, the ref and the flags. A decision is a flag on it and
// its digest share is recomputed, so neither costs a field — at a row per
// segment, every field is ≈ 0.3 B per hash of a corpus.
func TestDBparRowSize(t *testing.T) {
	if got := unsafe.Sizeof(parRow{}); got != 40 {
		t.Errorf("a DBpar row is %d bytes, want 40", got)
	}
}
