package index

// Compacted posting runs. Each hash shard pairs a small mutable head with
// one compacted run, and both tiers follow one rule: the first (oldest
// live) holder of a hash is stored inline beside the hash, and only a hash
// with further holders spills. Winnowed fingerprints rarely collide across
// paragraphs — 96 % of the hashes of a text corpus have exactly one holder
// — so the authoritative look-up of Algorithm 1 reads three adjacent
// columns at one index and the spill stays a few per cent of the run.
//
//	hashes[g]      g-th distinct hash, strictly ascending
//	segs[g]        interned ref of its oldest live holder, moreBit set when
//	               later holders spilled; tombstoneRef when none is alive
//	seqs[g]        that holder's first-seen time, as its distance below base
//
//	moreHashes[k]  hash of the k-th spilled posting, ordered by (hash, seq)
//	moreSegs[k]    its interned ref (tombstoneRef if dead)
//	moreSeqs[k]    its first-seen distance below base
//
// Stamps are uint64 (a router's Lamport stamp can raise the clock by any
// amount, see SetClockFloor) but one run spans a narrow window of them, so
// a column holds 32-bit distances below base, the logical clock when the
// run was built; a distance that does not fit is the sentinel wideSeq and
// the full stamp sits in the wide side table. Segments are refs of the DB's
// segment table, so a single-holder hash costs 12 bytes.
//
// Lookup cost is one small-map probe (head) plus a radix-skip bounded
// binary search (run): a 256-entry table per run keyed by the first byte
// below the shard bits narrows the search to ~1/256th of the run before
// the binary search starts, so at 10M+ hashes a probe touches a handful
// of contiguous cache lines instead of a giant hash map.
//
// Deletions tombstone run postings in place; deleting the inline holder
// moves the next live spilled one into its slot, so the slot never goes
// stale. Merging rebuilds the run without the dead postings. It happens
// inline under the shard write lock when the head outgrows the merge policy
// (see maybeCompactLocked), from DB.Compact, and in every shard an
// ExpireBefore pass finds something to drop in.

import (
	"sort"
)

const (
	// tombstoneRef marks a dead posting inside a compacted run; in the
	// inline column it means the whole group is dead.
	tombstoneRef = ^uint32(0)

	// moreBit tags an inline ref, in either tier, whose hash has later
	// holders beyond it. Refs proper stay below it.
	moreBit = uint32(1) << 31

	// wideSeq in a seq column sends the reader to run.wide.
	wideSeq = ^uint32(0)
)

// bigGroupMin is the live-posting count past which a run group gets a
// shard-level membership set (big), so inserting yet another holder of a
// hot hash (a popular passage held by thousands of paragraphs) is O(1)
// instead of a linear group scan.
const bigGroupMin = 64

// defaultCompactMin is the default minimum head size (postings) before an
// inline merge is considered; see SetCompactThreshold.
const defaultCompactMin = 4096

// run is one shard's compacted postings (layout in the file comment). Zero
// value = empty run.
type run struct {
	hashes, segs, seqs             []uint32
	moreHashes, moreSegs, moreSeqs []uint32

	base uint64            // the clock when the run was built: no stamp in it is newer
	wide map[uint32]uint64 // stamps further than wideSeq below base, by column index (spill indexes tagged moreBit)
	skip []uint32          // 257-entry radix index over hashes, keyed by radixByte
}

// radixByte extracts the first 8 hash bits below the shard-selecting bits,
// the key of the per-run skip table.
func radixByte(h uint32, shardBits uint) uint32 {
	return (h << shardBits) >> 24
}

// find returns the group index of h, or -1.
func (r *run) find(h uint32, shardBits uint) int {
	if len(r.hashes) == 0 {
		return -1
	}
	b := radixByte(h, shardBits)
	lo, hi := int(r.skip[b]), int(r.skip[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.hashes) && r.hashes[lo] == h {
		return lo
	}
	return -1
}

// more returns the spill range of h; callers ask only for groups tagged
// moreBit.
func (r *run) more(h uint32) (lo, hi int) {
	lo = sort.Search(len(r.moreHashes), func(k int) bool { return r.moreHashes[k] >= h })
	for hi = lo; hi < len(r.moreHashes) && r.moreHashes[hi] == h; hi++ {
	}
	return lo, hi
}

// postings is the number of posting slots in the run, dead ones included.
func (r *run) postings() int { return len(r.segs) + len(r.moreSegs) }

// firstSeq is the first-seen time of group g's inline holder.
func (r *run) firstSeq(g int) uint64 {
	if off := r.seqs[g]; off != wideSeq {
		return r.base - uint64(off)
	}
	return r.wide[uint32(g)]
}

// moreSeq is the first-seen time of spilled posting k.
func (r *run) moreSeq(k int) uint64 {
	if off := r.moreSeqs[k]; off != wideSeq {
		return r.base - uint64(off)
	}
	return r.wide[moreBit|uint32(k)]
}

// offset encodes seq (≤ base) for the column slot named by key.
func (r *run) offset(seq uint64, key uint32) uint32 {
	if d := r.base - seq; d < uint64(wideSeq) {
		return uint32(d)
	}
	if r.wide == nil {
		r.wide = make(map[uint32]uint64)
	}
	r.wide[key] = seq
	return wideSeq
}

// add appends a live posting; calls arrive in (hash, seq) order with
// seq ≤ base. The first posting of a hash opens its group, later ones spill.
func (r *run) add(h, ref uint32, seq uint64) {
	if g := len(r.hashes) - 1; g >= 0 && r.hashes[g] == h {
		r.segs[g] |= moreBit
		k := uint32(len(r.moreSegs))
		r.moreHashes = append(r.moreHashes, h)
		r.moreSegs = append(r.moreSegs, ref)
		r.moreSeqs = append(r.moreSeqs, r.offset(seq, moreBit|k))
		return
	}
	g := uint32(len(r.hashes))
	r.hashes = append(r.hashes, h)
	r.segs = append(r.segs, ref)
	r.seqs = append(r.seqs, r.offset(seq, g))
}

// clip re-allocates any column carrying more than 1/64 spare capacity: a
// run lives until its shard's next merge, which on a quiet shard is never.
func (r *run) clip() {
	for _, col := range []*[]uint32{&r.hashes, &r.segs, &r.seqs, &r.moreHashes, &r.moreSegs, &r.moreSeqs} {
		if n := len(*col); cap(*col)-n > n/64 {
			*col = append(make([]uint32, 0, n), *col...)
		}
	}
}

// buildSkip recomputes the radix skip table from hashes.
func (r *run) buildSkip(shardBits uint) {
	if len(r.hashes) == 0 {
		r.skip = nil
		return
	}
	if r.skip == nil {
		r.skip = make([]uint32, 257)
	}
	next := 0
	for b := 0; b < 256; b++ {
		r.skip[b] = uint32(next)
		for next < len(r.hashes) && radixByte(r.hashes[next], shardBits) == uint32(b) {
			next++
		}
	}
	r.skip[256] = uint32(len(r.hashes))
}

// bigSets builds the membership sets of a freshly built run (no tombstones
// yet): one per group of at least bigGroupMin postings.
func (r *run) bigSets(shardBits uint) map[uint32]map[uint32]struct{} {
	var big map[uint32]map[uint32]struct{}
	for lo := 0; lo < len(r.moreHashes); {
		h := r.moreHashes[lo]
		hi := lo + 1
		for hi < len(r.moreHashes) && r.moreHashes[hi] == h {
			hi++
		}
		if n := 1 + hi - lo; n >= bigGroupMin {
			set := make(map[uint32]struct{}, n)
			set[r.segs[r.find(h, shardBits)]&^moreBit] = struct{}{}
			for _, ref := range r.moreSegs[lo:hi] {
				set[ref] = struct{}{}
			}
			if big == nil {
				big = make(map[uint32]map[uint32]struct{})
			}
			big[h] = set
		}
		lo = hi
	}
	return big
}

// shardBitsOf converts the DB's hash shift back into the shard-selecting
// bit count used by the radix tables.
func (db *DB) shardBitsOf() uint { return 32 - db.hashShift }

// runHasSeg reports whether the run group g of h holds a live posting for
// ref, and whether the group has any live posting at all. The shard's big
// set for h, when present, answers the first in O(1).
func (sh *hashShard) runHasSeg(h uint32, g int, ref uint32) (inRun, anyLive bool) {
	first := sh.run.segs[g]
	if first == tombstoneRef {
		return false, false
	}
	if first&^moreBit == ref {
		return true, true
	}
	if set, ok := sh.big[h]; ok {
		_, inRun = set[ref]
		return inRun, true
	}
	if first&moreBit != 0 {
		for k, hi := sh.run.more(h); k < hi; k++ {
			if sh.run.moreSegs[k] == ref {
				return true, true
			}
		}
	}
	return false, true
}

// tombstone marks ref's posting in group g of h dead, returning its seq
// (for digest maintenance) and whether there was one. When the inline
// holder dies the next live spilled posting takes its slot, so the slot
// keeps naming the group's oldest live holder; segs[g] == tombstoneRef
// afterwards means the group is empty.
func (sh *hashShard) tombstone(h uint32, g int, ref uint32) (seq uint64, killed bool) {
	r := &sh.run
	first := r.segs[g]
	if first == tombstoneRef {
		return 0, false
	}
	k, hi := 0, 0
	if first&moreBit != 0 {
		k, hi = r.more(h)
	}
	if first&^moreBit == ref {
		seq = r.firstSeq(g)
		for k < hi && r.moreSegs[k] == tombstoneRef {
			k++
		}
		if k < hi {
			r.segs[g] = r.moreSegs[k] | moreBit
			r.seqs[g] = r.offset(r.moreSeq(k), uint32(g))
			r.moreSegs[k] = tombstoneRef
		} else {
			r.segs[g] = tombstoneRef
		}
	} else {
		for k < hi && r.moreSegs[k] != ref {
			k++
		}
		if k == hi {
			return 0, false
		}
		seq = r.moreSeq(k)
		r.moreSegs[k] = tombstoneRef
	}
	sh.dead++
	if set, ok := sh.big[h]; ok {
		delete(set, ref)
	}
	return seq, true
}

// expiresLocked reports whether the shard holds a live posting first seen
// before cutoff. Both tiers keep a hash's oldest holder inline, so the
// inline stamps decide.
func (sh *hashShard) expiresLocked(cutoff uint64) bool {
	for g, first := range sh.run.segs {
		if first != tombstoneRef && sh.run.firstSeq(g) < cutoff {
			return true
		}
	}
	for _, s := range sh.head {
		if s.seq() < cutoff {
			return true
		}
	}
	return false
}

// shouldCompactLocked is the inline merge policy: merge when the head holds
// at least min postings AND at least a quarter of the run's live size (so
// each posting is rewritten O(1) amortised times), or when tombstones
// dominate the run.
func (db *DB) shouldCompactLocked(sh *hashShard) bool {
	min := db.compactMin.Load()
	if min < 0 {
		return false
	}
	if min == 0 {
		min = defaultCompactMin
	}
	runLive := sh.run.postings() - sh.dead
	if sh.headPostings >= int(min) && sh.headPostings*4 >= runLive {
		return true
	}
	return sh.dead >= int(min) && sh.dead*2 >= sh.run.postings()
}

func (db *DB) maybeCompactLocked(sh *hashShard) {
	if db.shouldCompactLocked(sh) {
		db.compactShardLocked(sh, 0)
	}
}

// Compact merges every shard's mutable head into its compacted run and
// drops tombstones. It is safe to call concurrently with reads and writes
// (each shard is merged under its write lock) and is idempotent. bftagd
// runs this periodically; benchmarks call it before measuring steady-state
// footprint.
func (db *DB) Compact() {
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		if sh.headPostings > 0 || sh.dead > 0 {
			db.compactShardLocked(sh, 0)
		}
		sh.mu.Unlock()
	}
}

// SetCompactThreshold tunes the inline merge policy: the head must reach n
// postings (and a quarter of the run's live size) before a merge. n == 0
// restores the default; n < 0 disables automatic merging entirely, pinning
// the DB to the head-only map layout — the pre-compaction baseline used by
// the corpus benchmark and ablation tests. Explicit Compact calls still
// merge.
func (db *DB) SetCompactThreshold(n int) {
	db.compactMin.Store(int64(n))
}

// walkHashesLocked calls visit for every hash present in the shard's run
// or head, ascending, with its run group (or -1) and head slot.
func (sh *hashShard) walkHashesLocked(visit func(h uint32, g int, slot headSlot, inHead bool)) {
	run, keys := sh.run.hashes, make([]uint32, 0, len(sh.head))
	for h := range sh.head {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	g, i := 0, 0
	for g < len(run) || i < len(keys) {
		switch {
		case i >= len(keys) || (g < len(run) && run[g] < keys[i]):
			visit(run[g], g, headSlot{}, false)
			g++
		case g >= len(run) || keys[i] < run[g]:
			visit(keys[i], -1, sh.head[keys[i]], true)
			i++
		default:
			visit(run[g], g, sh.head[keys[i]], true)
			g++
			i++
		}
	}
}

// compactShardLocked rebuilds sh.run as the merge of the current run
// (minus tombstones) and the head, and drops the head. Postings first seen
// before cutoff are dropped on the way (ExpireBefore's pass; 0 keeps
// everything): it returns how many were, and how many hashes lost their
// last holder to that. Caller holds sh.mu for writing.
//
// The merge preserves every surviving (hash, seg, seq) triple exactly and
// keeps groups seq-ascending, so verdict and oldest-holder semantics are
// byte-identical before and after — the golden-equivalence property the
// compaction tests pin.
func (db *DB) compactShardLocked(sh *hashShard, cutoff uint64) (expired, emptied int) {
	// Every stamp in the shard was drawn from the clock before its posting
	// was inserted under this lock, so the clock bounds them all. The
	// column sizes are upper bounds (a hash can be in both tiers, a group
	// can be dead or expire); clip trims what they overshoot by.
	groups := len(sh.run.hashes) + len(sh.head)
	nw := run{
		base:   db.clock.Load(),
		hashes: make([]uint32, 0, groups),
		segs:   make([]uint32, 0, groups),
		seqs:   make([]uint32, 0, groups),
	}

	sh.walkHashesLocked(func(h uint32, g int, slot headSlot, inHead bool) {
		kept, dropped := nw.postings(), 0
		it := sh.postingsOf(h, g, slot, inHead)
		for ref, seq, ok := it.next(); ok; ref, seq, ok = it.next() {
			if seq < cutoff {
				sh.digest ^= postingCode(h, segDigestKey(string(db.tab.ID(ref))), seq)
				dropped++
				continue
			}
			nw.add(h, ref, seq)
		}
		expired += dropped
		if dropped > 0 && nw.postings() == kept {
			emptied++
		}
	})

	nw.clip()
	nw.buildSkip(db.shardBitsOf())
	sh.run = nw
	sh.big = nw.bigSets(db.shardBitsOf())
	// Dropped, not cleared: a map keeps its grown capacity, and the next
	// cycle's head is usually smaller than the one that triggered a merge.
	sh.head, sh.over = nil, nil
	db.headN.Add(int64(-sh.headPostings))
	db.deadN.Add(int64(-sh.dead))
	sh.headPostings = 0
	sh.dead = 0
	return expired, emptied
}

// postingIter walks one hash's live postings oldest first: its run group
// (inline holder, then the spill) merged with its head entry (inline slot,
// then the overflow bucket). On equal stamps the run goes first, the order
// an uncompacted head would hold.
type postingIter struct {
	r      *run
	g      int // run group whose inline holder is still to come, or -1
	k, hi  int // spill range still to come
	slot   headSlot
	inHead bool      // slot is still to come
	over   []posting // overflow still to come
}

// postingsOf starts an iteration over h, given its run group (or -1) and
// head slot. Caller holds sh.mu at least for reading.
func (sh *hashShard) postingsOf(h uint32, g int, slot headSlot, inHead bool) postingIter {
	it := postingIter{r: &sh.run, g: -1, slot: slot, inHead: inHead}
	if g >= 0 && sh.run.segs[g] != tombstoneRef {
		it.g = g
		if sh.run.segs[g]&moreBit != 0 {
			it.k, it.hi = sh.run.more(h)
		}
	}
	if inHead && slot.ref&moreBit != 0 {
		it.over = sh.over[h].postings
	}
	return it
}

func (it *postingIter) next() (ref uint32, seq uint64, ok bool) {
	var (
		rref, href uint32
		rseq, hseq uint64
		rok, hok   bool
	)
	if it.g >= 0 {
		rref, rseq, rok = it.r.segs[it.g]&^moreBit, it.r.firstSeq(it.g), true
	} else {
		for it.k < it.hi && it.r.moreSegs[it.k] == tombstoneRef {
			it.k++
		}
		if it.k < it.hi {
			rref, rseq, rok = it.r.moreSegs[it.k], it.r.moreSeq(it.k), true
		}
	}
	if it.inHead {
		href, hseq, hok = it.slot.ref&^moreBit, it.slot.seq(), true
	} else if len(it.over) > 0 {
		href, hseq, hok = it.over[0].ref, it.over[0].seq, true
	}
	switch {
	case rok && (!hok || rseq <= hseq):
		if it.g >= 0 {
			it.g = -1
		} else {
			it.k++
		}
		return rref, rseq, true
	case hok:
		if it.inHead {
			it.inHead = false
		} else {
			it.over = it.over[1:]
		}
		return href, hseq, true
	}
	return 0, 0, false
}

// appendPostingsLocked appends h's live postings, oldest first, to out.
// Caller holds sh.mu at least for reading.
func (sh *hashShard) appendPostingsLocked(h uint32, g int, slot headSlot, inHead bool, out []posting) []posting {
	it := sh.postingsOf(h, g, slot, inHead)
	for ref, seq, ok := it.next(); ok; ref, seq, ok = it.next() {
		out = append(out, posting{ref: ref, seq: seq})
	}
	return out
}

// oldestLocked resolves the authoritative (oldest live) holder of h: each
// tier names its oldest inline, and the run wins a tie. Caller holds sh.mu
// at least for reading.
func (db *DB) oldestLocked(sh *hashShard, h uint32) (ref uint32, seq uint64, ok bool) {
	if g := sh.run.find(h, db.shardBitsOf()); g >= 0 && sh.run.segs[g] != tombstoneRef {
		ref, seq, ok = sh.run.segs[g]&^moreBit, sh.run.firstSeq(g), true
	}
	if s, inHead := sh.head[h]; inHead && (!ok || s.seq() < seq) {
		return s.ref &^ moreBit, s.seq(), true
	}
	return ref, seq, ok
}
