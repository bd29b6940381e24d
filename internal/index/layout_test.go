package index

// What the layouts cost, which the model cannot say: the modelled
// footprint against the measured heap, allocation-free head inserts, the
// size of a DBpar row, and exact-size columns after a restore of a skewed
// hash distribution.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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
// next merge — on a standby, possibly for ever — so a restore must size
// every shard's columns from the shard's real share of the hashes, which
// for winnowed hashes is nowhere near total/shards.
func TestRestoreLeavesNoDeadCapacity(t *testing.T) {
	t.Parallel()
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
	if !bytes.Equal(snapshot(restored), snapshot(db)) {
		t.Error("the restored copy encodes another image")
	}
}

// restoredCopy round-trips db through its snapshot: the layout a restarted
// node, a bootstrapped standby and a promoted replica run on.
func restoredCopy(t *testing.T, db *DB) *DB {
	t.Helper()
	restored := New(nil, 0)
	if err := loadSnapshot(restored, snapshot(db)); err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestHeadInsertAllocatesNoObjectPerHash: a novel single-holder hash costs
// a head-table row, not a heap object — what is left is the table growing.
func TestHeadInsertAllocatesNoObjectPerHash(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const novel = 1000
	db := NewWithShards(nil, 0.5, 1)
	db.headOnly = true
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
// header, the stamp, the ref and the flags. Decisions live in the DB's
// memo, not on rows, and a row's digest share is recomputed, so neither
// costs a field — at a row per segment, every field is ≈ 0.3 B per hash
// of a corpus.
func TestDBparRowSize(t *testing.T) {
	if got := unsafe.Sizeof(parRow{}); got != 40 {
		t.Errorf("a DBpar row is %d bytes, want 40", got)
	}
}

// TestApproxBytesTracksHeap holds the Stats.ApproxBytes model to the
// measured heap: a 200 k-hash database built through Update must be
// estimated within ±15 % of what it actually retains, both as built (all
// postings in the mutable head, which no inline merge may empty) and
// after Compact (all in runs). The dashboard prints the estimate.
func TestApproxBytesTracksHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const segments, perSeg = 7500, 27 // ≈ 600-byte paragraphs
	rng := rand.New(rand.NewSource(5))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	segs := make([]segment.ID, segments)
	for i := range segs {
		segs[i] = segment.ID(fmt.Sprintf("book%d#p%d", i/80, i%80))
	}
	raw := make([]uint32, perSeg)
	before := heap()
	db := New(nil, 0.5)
	db.headOnly = true
	for _, seg := range segs {
		for i := range raw {
			raw[i] = rng.Uint32()
		}
		db.Update(seg, fingerprint.FromHashes(raw), nil)
	}
	// A corpus-scale ingest leaves a mix of the two layouts.
	for _, layout := range []string{"head", "compacted"} {
		if layout == "compacted" {
			db.Compact()
		}
		grown := float64(heap() - before)
		s := db.Stats()
		t.Logf("%s: %d segments, %d hashes, %d postings (%d in the head): heap +%.2f MB, ApproxBytes %.2f MB (%.1f vs %.1f B/hash)",
			layout, s.Segments, s.DistinctHashes, s.Postings, s.HeadPostings, grown/1e6, float64(s.ApproxBytes)/1e6,
			grown/float64(s.DistinctHashes), float64(s.ApproxBytes)/float64(s.DistinctHashes))
		if s.DistinctHashes < 200_000 {
			t.Fatalf("fixture built %d distinct hashes, want ≥ 200 000", s.DistinctHashes)
		}
		if want := map[string]int{"head": s.Postings, "compacted": 0}[layout]; s.HeadPostings != want {
			t.Fatalf("%s: %d of %d postings in the head, want %d", layout, s.HeadPostings, s.Postings, want)
		}
		if ratio := float64(s.ApproxBytes) / grown; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: ApproxBytes is %.2f× the measured heap growth, want within ±15 %%", layout, ratio)
		}
	}
	runtime.KeepAlive(db)

	// At ≈ 1 000 hashes a shard, where a run's bucket directory weighs the
	// most against its groups, a merged DB must still model smaller than
	// the same DB head-only.
	small := New(nil, 0.5)
	small.headOnly = true
	for i := 0; i < 4000; i++ {
		hs := make([]uint32, 32)
		for j := range hs {
			hs[j] = uint32(i*16+j) * 0x9e3779b1
		}
		small.Update(segment.ID(fmt.Sprintf("s#%d", i)), fingerprint.FromHashes(hs), nil)
	}
	headOnly := small.Stats()
	small.Compact()
	if merged := small.Stats(); merged.ApproxBytes >= headOnly.ApproxBytes {
		t.Errorf("%d hashes: merged ApproxBytes %d, not below head-only %d", merged.DistinctHashes, merged.ApproxBytes, headOnly.ApproxBytes)
	}
}
