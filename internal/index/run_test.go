package index

// The layouts' own edges, driven through the model rig (model_test.go): a
// run stores each group's low 16 bits under a bucket directory, so every
// hash that shares a low half with another in the same shard — or that
// lies outside the directory — is a place a lookup can go wrong; a merge
// splices a run's untouched stretches over as bits; packed columns widen
// as refs and stamp codes grow; a head table's rows share probe chains.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

// spliceCases are the shapes of a merge where splicing a run's untouched
// groups over can slip (see run.splice).
var spliceCases = []string{
	"stretch copied across a bit offset", "ref column widened", "stamp column widened",
	"run with tombstones", "wide stamp in a copied stretch", "head hash below the run's first bucket",
	"head hash past the run's last bucket", "head hash at a bucket's first group",
	"head hash at a bucket's last group", "spill split by a head hash",
}

// spliceCasesOf returns the spliceCases the next merge of sh meets, read
// off the shard before it merges.
func spliceCasesOf(sh *hashShard) map[string]bool {
	r, cases := &sh.run, map[string]bool{}
	if sh.dead > 0 {
		cases["run with tombstones"] = true
		return cases // every group is decoded
	}
	if len(r.lo) == 0 || sh.headPostings == 0 {
		return cases
	}
	var maxRef, maxStamp uint32
	code := func(ref uint32, seq uint64) {
		maxRef = max(maxRef, ref)
		if c := stampCode(seq, *r.born.At(ref)); c != wideSeq {
			maxStamp = max(maxStamp, c)
		}
	}
	keys := sh.headKeys()
	for _, key := range keys {
		i := int(uint32(key))
		code(sh.head.rows[i].ref&^moreBit, sh.head.seq(i))
	}
	for _, b := range sh.over {
		for _, p := range b.postings {
			code(p.ref, p.seq)
		}
	}
	refWidth := max(r.refs.width, codeWidth(refCode(maxRef|moreBit)))
	held := map[int]bool{} // run groups the head holds too
	next, inserted, copied := 0, 0, false
	for j := 0; j <= len(keys); j++ {
		end, found := len(r.lo), false
		var h uint32
		if j < len(keys) {
			h = uint32(keys[j] >> 32)
			end, found = r.search(h)
		}
		if end > next {
			copied = true
			if uint(next)*refWidth%64 != uint(next+inserted)*refWidth%64 {
				cases["stretch copied across a bit offset"] = true
			}
		}
		if j == len(keys) {
			break
		}
		next = end
		b := h>>16 - r.key0
		switch {
		case h>>16 < r.key0:
			cases["head hash below the run's first bucket"] = true
		case b >= uint32(len(r.dir)-1):
			cases["head hash past the run's last bucket"] = true
		case found && r.dir[b+1]-r.dir[b] >= 2 && end == int(r.dir[b]):
			cases["head hash at a bucket's first group"] = true
		case found && r.dir[b+1]-r.dir[b] >= 2 && end == int(r.dir[b+1])-1:
			cases["head hash at a bucket's last group"] = true
		}
		if k, _ := slices.BinarySearch(r.moreHashes, h); k > 0 && k < len(r.moreHashes) && r.moreHashes[k] > h {
			cases["spill split by a head hash"] = true
		}
		if found {
			held[end] = true
			next++
		} else {
			inserted++
		}
	}
	if copied && refWidth > r.refs.width {
		cases["ref column widened"] = true
	}
	if copied && codeWidth(maxStamp) > r.stamps.width {
		cases["stamp column widened"] = true
	}
	for key := range r.wide {
		g := int(key)
		if key&moreBit != 0 {
			g = r.find(r.moreHashes[key&^moreBit])
		}
		if !held[g] {
			cases["wide stamp in a copied stretch"] = true
		}
	}
	return cases
}

// missingCases returns the spliceCases the rig's merges have not met.
func (rig *modelRig) missingCases() []string {
	var missing []string
	for _, c := range spliceCases {
		if !rig.cases[c] {
			missing = append(missing, c)
		}
	}
	return missing
}

// runEdgeHashes are the hashes where a quotiented run's arithmetic can
// slip, for a DB of the given shard count: both ends of the low half and
// of the high half, the first and last hash of every shard, and hashes
// that share a low half across buckets and shards.
func runEdgeHashes(shards int) []uint32 {
	hs := []uint32{0, 1, 0xFFFF, 0x10000, 0x1FFFF, 0x20000, 0xFFFFFFFF, 0xFFFF0000, 0x7FFFFFFF, 0x80000000}
	db := NewWithShards(nil, 0, shards)
	for s := uint64(0); s < uint64(shards); s++ {
		first := uint32(s << db.hashShift)
		last := uint32((s+1)<<db.hashShift - 1)
		hs = append(hs, first, last, first|0x1234, last&^0xFFFF|0x1234)
	}
	return hs
}

// stampCodeOf returns the stamp code of ref's posting of h in db's run,
// and whether the run holds one.
func stampCodeOf(db *DB, h, ref uint32) (code uint32, ok bool) {
	r := &db.hashShards[db.hashShardIdx(h)].run
	g := r.find(h)
	if g < 0 {
		return 0, false
	}
	if r.first(g)&^moreBit == ref {
		return r.stamps.at(g), true
	}
	for k, hi := r.more(h); k < hi; k++ {
		if r.moreRef(k) == ref {
			return r.moreStamps.at(k), true
		}
	}
	return 0, false
}

// TestQuotientedRunMatchesReference drives DBs of 1, 64 and 256 shards —
// at each, one merging inline as the merge policy says and one head-only
// between the merges it is told to make — and the reference model through
// one random sequence of inserts, removals, expiries, clock jumps, merges
// and restores, over hashes at every bucket and shard edge plus a hot hash
// with enough holders for a membership set. After every step each DB
// answers as the model does for every edge hash and its low-half twins,
// present or absent, and all six encode the same image.
//
// The packed columns' widths are crossed on purpose: the DBs share a
// segment table whose fillers push the refs of new segments across 2^15
// and 2^16, and edits after clock jumps code stamps at distances from
// their holders' born stamps across bit boundaries. A final phase builds
// the stamp codes holder-relative coding can get wrong: a holder born
// before a 2^40 jump that posts after it (a wide code), a restored holder
// whose postings are older than its updated (a negative code), and a
// removal that moves a spilled successor with another born stamp, the
// run's widest ref and the run's widest code into the inline slot.
//
// Each seed's explicit merges must between them meet every one of
// spliceCases (the inline-merging DBs leave less than a thirty-second of their
// runs for those; the head-only ones meet the head's widest codes) — stretches copied across bit offsets, columns widened by a
// head code, tombstones, wide stamps in a copied stretch, head hashes
// outside the run's directory and at a bucket's ends, a spill column cut
// by a head hash — so the model checks each of splice's edges.
func TestQuotientedRunMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			shardCounts := []int{1, DefaultShards, 256}
			// A hash space where edges recur: every edge hash of every
			// layout, winnowed-like small hashes that crowd the low shards'
			// first buckets, and uniform ones.
			var pool []uint32
			for _, n := range shardCounts {
				pool = append(pool, runEdgeHashes(n)...)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				pool = append(pool, uint32(rng.Intn(1<<20)), rng.Uint32())
			}
			const hot = uint32(0x00012345)
			// Probes: the pool, and every pool hash moved to neighbouring
			// buckets and a far one with its low half kept (below 2^16,
			// the bucket before wraps to the top shard) — present or
			// absent, a lookup that ignored the bucket would confuse them.
			var probes []uint32
			for _, h := range pool {
				probes = append(probes, h, h+0x10000, h-0x10000, h^0x80000)
			}
			probes = append(probes, hot)
			slices.Sort(probes)
			probes = slices.Compact(probes)

			tab := &segment.Table{}
			fillTable(tab, 1<<15-4)
			rig := newModelRig(t, tab, append(layoutsAt(false, shardCounts...), layoutsAt(true, shardCounts...)...), probes)
			rig.noCopies = true // two steps in 25 restore every DB

			next, sawBig, sawWide := 0, false, false
			refWidths, stampWidths := map[uint]bool{}, map[uint]bool{}
			for step := 0; step < 160; step++ {
				if step == 60 {
					fillTable(tab, 1<<16-4)
				}
				rebuilt := false // a fresh run in every DB
				switch op := rng.Intn(25); {
				case op >= 22:
					// An edit: the segment keeps some of its hashes and
					// posts new ones, at a distance from its born stamp.
					seg, ok := rig.m.liveSeg(rng)
					if !ok {
						continue
					}
					hs := slices.Clone(rig.m.segs[seg].hashes[:len(rig.m.segs[seg].hashes)/2])
					for j := 0; j < 1+rng.Intn(6); j++ {
						hs = append(hs, pool[rng.Intn(len(pool))])
					}
					rig.update(seg, hs, nil)
				case op < 14:
					seg := segment.ID(fmt.Sprintf("doc%d#p%d", next/8, next%8))
					next++
					hs := []uint32{}
					for j := 0; j < 4+rng.Intn(24); j++ {
						hs = append(hs, pool[rng.Intn(len(pool))])
					}
					hs = append(hs, hot)
					rig.update(seg, hs, nil)
				case op < 15:
					gone, ok := rig.m.liveSeg(rng)
					if !ok {
						continue
					}
					rig.remove(gone)
				case op < 16:
					// Among the oldest quarter of the live stamps, so a clock
					// jump does not make every expiry a wipe.
					stamps := append(rig.m.stamps(), rig.m.clock)
					cut := stamps[rng.Intn(len(stamps)/4+1)]
					rig.expire(cut)
				case op < 18:
					rig.compact()
					rebuilt = true
				case op < 20:
					rig.restoreAll()
					rebuilt = true
				case op < 21:
					jump := []uint64{1<<15 - 2, 1 << 16, 1<<31 + 7}[rng.Intn(3)]
					rig.floor(rig.m.clock + jump)
				case op < 22:
					rig.floor(rig.m.clock + 1<<40)
				}
				if rebuilt {
					// A fresh run gives a group of bigGroupMin holders its
					// membership set.
					big := len(rig.m.postings[hot]) >= bigGroupMin
					for i, db := range rig.dbs {
						if got := db.hashShards[db.hashShardIdx(hot)].big[hot] != nil; got != big {
							t.Fatalf("step %d/%v: hot hash with %d holders has a membership set: %v", step, rig.layouts[i], len(rig.m.postings[hot]), got)
						}
					}
					sawBig = sawBig || big
					for _, db := range rig.dbs {
						for si := range db.hashShards {
							r := &db.hashShards[si].run
							refWidths[r.refs.width] = true
							stampWidths[r.stamps.width] = true
							sawWide = sawWide || len(r.wide) > 0
						}
					}
				}
			}
			if !sawBig {
				t.Error("the hot hash never reached a membership set")
			}
			if !sawWide || !refWidths[16] || !refWidths[17] || !refWidths[18] || len(stampWidths) < 3 {
				t.Errorf("runs held wide stamps: %v; ref widths %v, want 16, 17 and 18 among them; stamp widths %v, want three or more",
					sawWide, refWidths, stampWidths)
			}
			rig.compact()
			if missing := rig.missingCases(); len(missing) > 0 {
				t.Errorf("no merge met %q", missing)
			}
			for _, ref := range []uint32{1<<15 - 1, 1 << 15, 1<<16 - 1, 1 << 16, 1<<16 + 1} {
				if int(ref) >= tab.Len() || !strings.HasPrefix(string(tab.ID(ref)), "doc") {
					t.Fatalf("ref %d is not a segment of the sequence", ref)
				}
			}

			// A holder born before a 2^40 jump posts after it: old is born
			// at x, jumps, then edits to post x+1 at a code only the wide
			// table holds.
			x := uint32(0x00ABC000)
			for rig.m.postings[x] != nil || rig.m.postings[x+1] != nil {
				x += 2
			}
			rig.update("widest/old#p0", []uint32{x}, nil)
			rig.floor(rig.m.clock + 1<<40)
			rig.update("widest/old#p0", []uint32{x, x + 1}, nil)
			// The successor is interned last, at the run's widest ref, and
			// born 2^40 after old; a 2^20 jump later it posts x, so its
			// spilled posting holds the run's widest code.
			fillTable(tab, 1<<17-1)
			rig.update("widest/succ#p0", []uint32{x + 2}, nil)
			rig.floor(rig.m.clock + 1<<20)
			rig.update("widest/succ#p0", []uint32{x, x + 2}, nil)
			rig.compact()
			old, _ := tab.Lookup("widest/old#p0")
			// succ's posting of x is 2^20 + 1 after its born stamp.
			const succ, succCode = 1<<17 - 1, 2 * (1<<20 + 1)
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x+1, old); !ok || c != wideSeq {
					t.Fatalf("%v: old's posting after the jump has code %d (%v), want the wide sentinel", rig.layouts[i], c, ok)
				}
				r := &db.hashShards[db.hashShardIdx(x)].run
				k, hi := r.more(x)
				c, _ := stampCodeOf(db, x, succ)
				if r.first(r.find(x))&^moreBit != old || hi != k+1 || r.moreRef(k) != succ || c != succCode {
					t.Fatalf("%v: fixture is not old inline and one spilled successor at ref %d with code %d", rig.layouts[i], succ, succCode)
				}
				if *db.born.At(old) == *db.born.At(succ) {
					t.Fatalf("%v: old and its successor share a born stamp", rig.layouts[i])
				}
				for g := range r.lo {
					if first := r.first(g); first != tombstoneRef && first&^moreBit > succ || r.stamps.at(g) != wideSeq && r.stamps.at(g) > c {
						t.Fatalf("%v: group %d holds a ref or code wider than the successor's", rig.layouts[i], g)
					}
				}
			}
			// Removing old moves the successor inline, coded against its
			// own born stamp, and takes old's postings of both versions.
			rig.remove("widest/old#p0")
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x, succ); !ok || c != succCode {
					t.Fatalf("%v: the moved successor has code %d (%v), want %d", rig.layouts[i], c, ok, succCode)
				}
			}

			// A holder edited after its first postings: restored, its born
			// stamp is its updated, so the older postings code negative.
			rig.update("neg/held#p0", []uint32{x + 4}, nil)
			rig.update("neg/other#p0", []uint32{x + 8}, nil)
			rig.update("neg/held#p0", []uint32{x + 4, x + 6}, nil)
			rig.restoreAll()
			held, _ := tab.Lookup("neg/held#p0")
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x+4, held); !ok || c != 3 {
					t.Fatalf("%v: the restored holder's older posting has code %d (%v), want zigzag(-2) = 3", rig.layouts[i], c, ok)
				}
			}
			rig.remove("neg/held#p0")
		})
	}
}

// chainHashes returns n hashes of the lowest 256-shard shard whose homes
// in a head table coincide at every capacity below 2^16: their products
// with the table's multiplier share the top 16 bits.
func chainHashes(n int) []uint32 {
	var hs []uint32
	for h := uint32(1); len(hs) < n; h++ {
		if (h*0x9e3779b1)>>16 == (uint32(1)*0x9e3779b1)>>16 {
			hs = append(hs, h)
		}
	}
	return hs
}

// TestHeadTableMatchesReference is the head-only pass of the reference
// test: DBs that never merge on their own, so every operation lands in the
// head tables. Its hashes share a probe chain, its removals take holders
// out of the middle of the chain, its shard fills past two resizes, and
// late postings carry stamps older than the table's base, some by more
// than 32 bits.
func TestHeadTableMatchesReference(t *testing.T) {
	t.Parallel()
	shardCounts := []int{1, DefaultShards, 256}
	chain := chainHashes(12)
	var fill []uint32 // more hashes of the same shard
	for h := uint32(1); len(fill) < 120; h += 0x1F3 {
		if !slices.Contains(chain, h) {
			fill = append(fill, h)
		}
	}
	probes := append(slices.Clone(chain), fill...)
	slices.Sort(probes)
	rig := newModelRig(t, &segment.Table{}, layoutsAt(true, shardCounts...), probes)
	seg := func(i int) segment.ID { return segment.ID(fmt.Sprintf("chain#p%d", i)) }

	// The table's base is a stamp 2^40 up the clock.
	rig.floor(1 << 40)
	for i, h := range chain {
		rig.update(seg(i), []uint32{h}, nil)
	}
	for _, db := range rig.dbs {
		t0 := &db.hashShards[0].head
		for _, h := range chain[1:] {
			if t0.home(h) != t0.home(chain[0]) {
				t.Fatalf("%v: chain hashes %#x and %#x have different homes", len(db.hashShards), h, chain[0])
			}
		}
	}
	// Out of the middle of the chain, then its head and its tail.
	for _, i := range []int{5, 6, 0, 11} {
		rig.remove(seg(i))
	}
	// Late postings older than the base: by a few stamps, and by more
	// than 32 bits. The second displaces the row's holder to the overflow
	// bucket.
	base := rig.dbs[0].hashShards[0].head.base
	rig.post("late#p0", chain[1:3], base-3)
	rig.post("late#p1", chain[2:4], 5)
	for _, db := range rig.dbs {
		t0 := &db.hashShards[0].head
		if i := t0.find(chain[1]); i < 0 || t0.rows[i].off != -3 || len(t0.wide) == 0 {
			t.Fatalf("%v: late stamps are not a negative offset and a wide one", len(db.hashShards))
		}
	}
	// Grow the shard's table, a few hashes at a time.
	grows := make([]int, len(rig.dbs))
	for i := 0; i < len(fill); i += 6 {
		rows := make([]int, len(rig.dbs))
		for j, db := range rig.dbs {
			rows[j] = len(db.hashShards[0].head.rows)
		}
		rig.update(segment.ID(fmt.Sprintf("fill#p%d", i)), fill[i:i+6], nil)
		if i%24 == 0 {
			rig.floor(rig.m.clock + 1<<32) // stamps above the base by more than 32 bits
		}
		for j, db := range rig.dbs {
			if len(db.hashShards[0].head.rows) != rows[j] {
				grows[j]++
			}
		}
		if i%18 == 12 {
			rig.remove(segment.ID(fmt.Sprintf("fill#p%d", i-6)))
			rig.remove(seg(i/18 + 7))
		}
	}
	for j, n := range grows {
		if n < 2 {
			t.Errorf("%v: the head table grew %d times, want at least 2", shardCounts[j], n)
		}
	}
	rig.expire(base + 2)
	rig.compact()
}

// TestRunDirectoryBounds pins find's two ways of answering absent without
// a search — a hash below the run's lowest bucket and one past its
// highest — and that a directory only spans the buckets it holds.
func TestRunDirectoryBounds(t *testing.T) {
	var born segment.Column[uint64]
	*born.Make(1) = 7
	r := newRun(&born, 0, 0, 0, 0)
	for i, h := range []uint32{0x00050001, 0x00050002, 0x00070000, 0x0007FFFF} {
		r.add(h, 1, uint64(7+i))
	}
	r.finish()
	if want := []uint32{0, 2, 2, 4}; !slices.Equal(r.dir, want) || r.key0 != 5 {
		t.Fatalf("dir %v from key %d, want %v from 5", r.dir, r.key0, want)
	}
	for h, want := range map[uint32]int{
		0x00050001: 0, 0x00050002: 1, 0x00070000: 2, 0x0007FFFF: 3,
		0x00040001: -1, 0x00060001: -1, 0x00080000: -1, 0x0008FFFF: -1, 0xFFFF0001: -1, 0x00070001: -1,
	} {
		if got := r.find(h); got != want {
			t.Errorf("find(%#x) = %d, want %d", h, got, want)
		}
	}
	var hs []uint32
	for c := (runCursor{r: &r}); c.ok(); c.next() {
		hs = append(hs, c.hash())
	}
	if want := []uint32{0x00050001, 0x00050002, 0x00070000, 0x0007FFFF}; !slices.Equal(hs, want) {
		t.Errorf("cursor walks %#x, want %#x", hs, want)
	}
	for g := range r.lo {
		if seq := r.firstSeq(g); seq != uint64(7+g) {
			t.Errorf("group %d stamped %d, want %d", g, seq, 7+g)
		}
	}
	var empty run
	empty.finish()
	if empty.dir != nil || empty.find(0) != -1 {
		t.Errorf("empty run: dir %v, find(0) = %d", empty.dir, empty.find(0))
	}
}
