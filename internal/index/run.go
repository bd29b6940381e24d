package index

// Compacted posting runs. Each hash shard pairs a small mutable head with
// one compacted run, and both tiers follow one rule: the first (oldest
// live) holder of a hash is stored inline beside the hash, and only a hash
// with further holders spills. Winnowed fingerprints rarely collide across
// paragraphs — 96 % of the hashes of a text corpus have exactly one holder
// — so the authoritative look-up of Algorithm 1 reads three adjacent
// columns at one index and the spill stays a few per cent of the run.
//
//	dir[b]         first group whose hash's high half is key0+b; the last
//	               entry is the group count, so bucket b is dir[b]..dir[b+1]
//	lo[g]          low 16 bits of the g-th distinct hash, ascending per bucket
//	refs[g]        ref code of its oldest live holder: ref<<1, | 1 when later
//	               holders spilled; the sentinel when none is alive
//	stamps[g]      that holder's first-seen time, coded against the holder
//
//	moreHashes[k]  hash of the k-th spilled posting, ordered by (hash, seq)
//	moreRefs[k]    its ref code, ref<<1 (the sentinel if dead)
//	moreStamps[k]  its first-seen time, coded against its holder
//
// The hash column is quotiented: group g's full hash is
// (key0+b)<<16 | lo[g] for the bucket b that holds g, where key0 is the
// high half of the run's lowest hash. A run holds one shard, whose bits
// are the top of that high half, so dir spans at most the 16 − shardBits
// bits below them (1 025 entries at 64 shards) and is trimmed to the
// buckets between the run's lowest and highest hash.
//
// The ref and stamp columns are bit-packed, each at the narrowest width
// its run needs (see packed): at 50 k segments a ref code takes 17 bits.
// Widths are the narrowest over the inline and the spill column together,
// because removing an inline holder moves the next spilled one into its
// slot; a merge that drops nothing keeps the old run's widths, widened to
// fit the head's codes, and one that drops postings recomputes them. The
// all-ones code at a width is its column's sentinel. Stamps are uint64 (a
// router's Lamport stamp can raise the clock by any amount, see
// SetClockFloor), but a segment posts most of its hashes at its first
// observation, so a stamp is coded against its holder's born stamp
// (DB.born, the stamp of the ref's first posting): zigzag(seq − born), 0
// for every posting of a segment never edited, which on ingest packs the
// stamp columns at one bit. A code that does not fit 32 bits is the
// sentinel and the full stamp sits in the wide side table. Segments are
// refs of the DB's segment table.
//
// Lookup cost is one head-table probe plus a directory-bounded binary
// search (run): the directory entry of the hash's high half narrows the
// search to the groups sharing it — 1/1024th of a 64-shard DB's hash space
// — and the search compares 2-byte keys, so at 10M+ hashes a probe touches
// a cache line or two of lo instead of a giant hash map.
//
// Deletions tombstone run postings in place; deleting the inline holder
// moves the next live spilled one into its slot, its stamp coded against
// its own holder, so the slot never goes stale. A merge writes a new run
// from the old one and the head (see compactShardLocked): the stretches of
// groups between two head hashes are spliced over unchanged, codes and
// all, and only the groups the head also holds are decoded and re-coded,
// unless the merge drops postings — the run's tombstones, or an expiry —
// when every group is. It happens inline under the shard write lock when
// the head outgrows the merge policy (see shouldCompactLocked), from
// DB.Compact, and in every shard an ExpireBefore pass finds something to
// drop in.

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/lsds/browserflow/internal/segment"
)

const (
	// tombstoneRef marks a dead posting inside a compacted run; in the
	// inline column it means the whole group is dead.
	tombstoneRef = ^uint32(0)

	// moreBit tags an inline ref, in either tier, whose hash has later
	// holders beyond it. Refs proper stay below it.
	moreBit = uint32(1) << 31

	// wideSeq as a stamp code sends the reader to run.wide.
	wideSeq = ^uint32(0)
)

// bigGroupMin is the live-posting count past which a run group gets a
// shard-level membership set (big), so inserting yet another holder of a
// hot hash (a popular passage held by thousands of paragraphs) is O(1)
// instead of a linear group scan.
const bigGroupMin = 64

// packed is a column of fixed-width codes packed into words: code i is
// bits i·width … (i+1)·width−1 of the words read as one little-endian bit
// string. The all-ones code at the width is the sentinel, which reads and
// writes as ^uint32(0); every other code must stay below it.
type packed struct {
	words []uint64
	width uint
}

// codeWidth is the narrowest width at which every code up to max is below
// the sentinel.
func codeWidth(max uint32) uint { return uint(bits.Len32(max + 1)) }

// packCodes packs codes at width.
func packCodes(codes []uint32, width uint) packed {
	p := packed{words: make([]uint64, (uint(len(codes))*width+63)/64), width: width}
	for i, c := range codes {
		p.set(i, c)
	}
	return p
}

// newPacked returns an empty column at width with room for n codes.
func newPacked(width uint, n int) packed {
	return packed{words: make([]uint64, 0, (uint(n)*width+63)/64), width: width}
}

// grow extends the column with zero words until it holds n codes, and
// then to its capacity, so the next calls find room without asking.
func (p *packed) grow(n int) {
	need, have := int((uint(n)*p.width+63)/64), len(p.words)
	if need <= have {
		return
	}
	p.words = slices.Grow(p.words, need-have)
	p.words = p.words[:cap(p.words)]
	clear(p.words[have:])
}

// copyFrom grows the column over codes i … i+n−1 and sets them to src's
// codes j … j+n−1, a sentinel staying the sentinel; the codes from i on
// must be unset. At equal widths the codes move as one bit string, a word
// at a time; at another width each code moves on its own, the bit offsets
// of both columns advancing by their widths.
func (p *packed) copyFrom(i int, src *packed, j, n int) {
	if n == 0 {
		return
	}
	p.grow(i + n)
	dst, from := uint(i)*p.width, uint(j)*src.width
	if src.width != p.width {
		smask, mask := uint64(1)<<src.width-1, uint64(1)<<p.width-1
		for ; n > 0; n-- {
			v := src.bits(from) & smask
			if v == smask {
				v = mask
			}
			w, off := dst/64, dst%64
			p.words[w] |= v << off
			if off+p.width > 64 {
				p.words[w+1] |= v >> (64 - off)
			}
			dst, from = dst+p.width, from+src.width
		}
		return
	}
	left := uint(n) * p.width
	if off := dst % 64; off != 0 { // up to the next word of the column
		take := min(64-off, left)
		p.words[dst/64] |= (src.bits(from) & (uint64(1)<<take - 1)) << off
		dst, from, left = dst+take, from+take, left-take
	}
	w := dst / 64
	for ; left >= 64; left, w, from = left-64, w+1, from+64 {
		p.words[w] = src.bits(from)
	}
	if left > 0 {
		p.words[w] |= src.bits(from) & (uint64(1)<<left - 1)
	}
}

// bits returns the 64 bits of the column's bit string from bit on, zeros
// past its last word.
func (p *packed) bits(bit uint) uint64 {
	w, off := bit/64, bit%64
	v := p.words[w] >> off
	if off > 0 && w+1 < uint(len(p.words)) {
		v |= p.words[w+1] << (64 - off)
	}
	return v
}

// widened returns the column's first n codes at width, which must be
// above its own, with room for as many codes as the column had.
func (p *packed) widened(n int, width uint) packed {
	q := newPacked(width, int(uint(cap(p.words))*64/p.width))
	q.copyFrom(0, p, 0, n)
	return q
}

// trim cuts the column to its first n codes and re-allocates it if its
// words carry more than 1/64 spare capacity.
func (p *packed) trim(n int) { p.words = clip(p.words[:(uint(n)*p.width+63)/64]) }

func (p *packed) at(i int) uint32 {
	mask := uint64(1)<<p.width - 1
	bit := uint(i) * p.width
	w, off := bit/64, bit%64
	v := p.words[w] >> off
	if off+p.width > 64 {
		v |= p.words[w+1] << (64 - off)
	}
	if v &= mask; v == mask {
		return ^uint32(0)
	}
	return uint32(v)
}

// set stores code at i. A code that does not fit the width panics: a
// truncated ref or stamp would answer with another segment or time.
func (p *packed) set(i int, code uint32) {
	mask := uint64(1)<<p.width - 1
	v := uint64(code)
	if code == ^uint32(0) {
		v = mask
	} else if v >= mask {
		panic("index: code does not fit its packed run column")
	}
	bit := uint(i) * p.width
	w, off := bit/64, bit%64
	p.words[w] = p.words[w]&^(mask<<off) | v<<off
	if off+p.width > 64 {
		p.words[w+1] = p.words[w+1]&^(mask>>(64-off)) | v>>(64-off)
	}
}

// refCode is the column code of a ref tagged moreBit (or tombstoneRef):
// ref<<1 | more, tombstoneRef staying all ones; refOf is its inverse.
func refCode(tagged uint32) uint32 { return bits.RotateLeft32(tagged, 1) }

func refOf(code uint32) uint32 { return bits.RotateLeft32(code, -1) }

// run is one shard's compacted postings (layout in the file comment). Zero
// value = empty run; one being filled comes from newRun.
type run struct {
	lo                   []uint16
	refs, stamps         packed
	moreHashes           []uint32
	moreRefs, moreStamps packed
	dir                  []uint32

	key0 uint32                  // high half of the run's lowest hash, dir's first bucket
	last uint32                  // the last group's full hash, for add
	born *segment.Column[uint64] // the stamps its refs' codes are against
	wide map[uint32]uint64       // stamps whose code is wideSeq, by column index (spill indexes tagged moreBit)
}

// find returns the group index of h, or -1.
func (r *run) find(h uint32) int {
	if g, ok := r.search(h); ok {
		return g
	}
	return -1
}

// runCursor walks a run's groups in order, rebuilding each group's full
// hash from its bucket and low half.
type runCursor struct {
	r    *run
	g, b int // group, and the bucket holding it
}

func (c *runCursor) ok() bool { return c.g < len(c.r.lo) }

func (c *runCursor) hash() uint32 { return (c.r.key0+uint32(c.b))<<16 | uint32(c.r.lo[c.g]) }

func (c *runCursor) next() { c.seek(c.g + 1) }

// seek moves the cursor forward to group g.
func (c *runCursor) seek(g int) {
	for c.g = g; c.g < len(c.r.lo) && int(c.r.dir[c.b+1]) <= c.g; {
		c.b++
	}
}

// search returns the group of h and true, or the group h would be inserted
// before and false. A hash whose high half lies outside the directory is
// placed without a search.
func (r *run) search(h uint32) (int, bool) {
	switch {
	case len(r.dir) == 0 || h>>16 < r.key0:
		return 0, false
	case h>>16-r.key0 >= uint32(len(r.dir)-1):
		return len(r.lo), false
	}
	b := h>>16 - r.key0
	start, end := r.dir[b], r.dir[b+1]
	i, ok := slices.BinarySearch(r.lo[start:end], uint16(h))
	return int(start) + i, ok
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
func (r *run) postings() int { return len(r.lo) + len(r.moreHashes) }

// bytes is what the run's columns occupy.
func (r *run) bytes() int64 {
	words := cap(r.refs.words) + cap(r.stamps.words) + cap(r.moreRefs.words) + cap(r.moreStamps.words)
	return int64(2*cap(r.lo) + 4*(cap(r.moreHashes)+cap(r.dir)) + 8*words)
}

// first is group g's inline holder: its ref tagged moreBit when later
// holders spilled, or tombstoneRef when the group is dead.
func (r *run) first(g int) uint32 { return refOf(r.refs.at(g)) }

func (r *run) setFirst(g int, tagged uint32) { r.refs.set(g, refCode(tagged)) }

// moreRef is spilled posting k's ref, or tombstoneRef if it is dead.
func (r *run) moreRef(k int) uint32 { return refOf(r.moreRefs.at(k)) }

func (r *run) killMore(k int) {
	r.moreRefs.set(k, refCode(tombstoneRef))
	delete(r.wide, moreBit|uint32(k))
}

// firstSeq is the first-seen time of group g's inline holder, which is
// live.
func (r *run) firstSeq(g int) uint64 {
	return r.seq(r.stamps.at(g), r.first(g)&^moreBit, uint32(g))
}

// moreSeq is the first-seen time of spilled posting k, which is live.
func (r *run) moreSeq(k int) uint64 {
	return r.seq(r.moreStamps.at(k), r.moreRef(k), moreBit|uint32(k))
}

// seq decodes the stamp code of ref's posting in the column slot named by
// key.
func (r *run) seq(code, ref, key uint32) uint64 {
	if code == wideSeq {
		return r.wide[key]
	}
	c := uint64(code)
	return *r.born.At(ref) + (c>>1 ^ -(c & 1))
}

// code encodes seq as the stamp code of ref's posting in the column slot
// named by key: zigzag(seq − born), or wideSeq with seq in the wide table.
func (r *run) code(seq uint64, ref, key uint32) uint32 {
	c := stampCode(seq, *r.born.At(ref))
	if c == wideSeq {
		r.setWide(key, seq)
	}
	return c
}

// stampCode is zigzag(seq − born), or wideSeq when that does not fit
// below it.
func stampCode(seq, born uint64) uint32 {
	d := int64(seq - born)
	if c := uint64(d<<1) ^ uint64(d>>63); c < uint64(wideSeq) {
		return uint32(c)
	}
	return wideSeq
}

func (r *run) setWide(key uint32, seq uint64) {
	if r.wide == nil {
		r.wide = make(map[uint32]uint64)
	}
	r.wide[key] = seq
}

// newRun returns an empty run for add and splice to fill, in hash order,
// with room for the given numbers of groups and spilled postings and its
// columns at the given widths, or the narrowest; add widens them as its
// codes need.
func newRun(born *segment.Column[uint64], groups, spill int, refWidth, stampWidth uint) run {
	refWidth, stampWidth = max(refWidth, codeWidth(refCode(moreBit))), max(stampWidth, codeWidth(0))
	return run{
		born:       born,
		lo:         make([]uint16, 0, groups),
		refs:       newPacked(refWidth, groups),
		stamps:     newPacked(stampWidth, groups),
		moreHashes: make([]uint32, 0, spill),
		moreRefs:   newPacked(refWidth, spill),
		moreStamps: newPacked(stampWidth, spill),
	}
}

// open appends a group for h, opening the directory's buckets up to its
// own, and returns its index.
func (r *run) open(h uint32) int {
	g := len(r.lo)
	if g == 0 {
		r.key0 = h >> 16
	}
	for b := h>>16 - r.key0; uint32(len(r.dir)) <= b; {
		r.dir = append(r.dir, uint32(g))
	}
	r.last = h
	r.lo = append(r.lo, uint16(h))
	return g
}

// add appends a live posting, whose ref's born stamp is set; calls arrive
// in (hash, seq) order. The first posting of a hash opens its group; later
// ones spill. A code its column's width does not hold widens the column,
// and its inline or spill twin with it.
func (r *run) add(h, ref uint32, seq uint64) {
	spill := len(r.lo) > 0 && r.last == h
	key := uint32(len(r.lo))
	if spill {
		key = moreBit | uint32(len(r.moreHashes))
	}
	stamp := r.code(seq, ref, key)
	if w := codeWidth(refCode(ref | moreBit)); w > r.refs.width {
		r.refs, r.moreRefs = r.refs.widened(len(r.lo), w), r.moreRefs.widened(len(r.moreHashes), w)
	}
	if w := codeWidth(stamp); stamp != wideSeq && w > r.stamps.width {
		r.stamps, r.moreStamps = r.stamps.widened(len(r.lo), w), r.moreStamps.widened(len(r.moreHashes), w)
	}
	if spill {
		g, k := len(r.lo)-1, len(r.moreHashes)
		r.refs.set(g, r.refs.at(g)|1)
		r.moreHashes = append(r.moreHashes, h)
		r.moreRefs.grow(k + 1)
		r.moreRefs.set(k, refCode(ref))
		r.moreStamps.grow(k + 1)
		r.moreStamps.set(k, stamp)
		return
	}
	g := r.open(h)
	r.refs.grow(g + 1)
	r.refs.set(g, refCode(ref))
	r.stamps.grow(g + 1)
	r.stamps.set(g, stamp)
}

// splice appends src's groups c.g … end−1 unchanged, with their spilled
// postings k … kEnd−1, and leaves c at end; r's next group comes after
// them in hash order, and r's columns are at least as wide as src's. The
// directory entries of the buckets the groups span move once each, by the
// groups' shift; wide holds src's wide-stamp keys not moved yet, inline
// ones and spilled ones, ascending, and splice moves those of the copied
// slots, re-keyed by the same shift.
func (r *run) splice(c *runCursor, end, k, kEnd int, wide *[2][]uint32) {
	src, g0, g, n := c.r, c.g, len(r.lo), len(r.moreHashes)
	high := src.key0 + uint32(c.b)
	if g == 0 {
		r.key0 = high
	}
	for uint32(len(r.dir)) <= high-r.key0 {
		r.dir = append(r.dir, uint32(g))
	}
	first := c.b + 1
	c.seek(end - 1)
	shift := uint32(g - g0)
	for _, d := range src.dir[first : c.b+1] {
		r.dir = append(r.dir, d+shift)
	}
	r.last = c.hash()
	c.seek(end)

	r.lo = append(r.lo, src.lo[g0:end]...)
	r.refs.copyFrom(g, &src.refs, g0, end-g0)
	r.stamps.copyFrom(g, &src.stamps, g0, end-g0)
	r.moreHashes = append(r.moreHashes, src.moreHashes[k:kEnd]...)
	r.moreRefs.copyFrom(n, &src.moreRefs, k, kEnd-k)
	r.moreStamps.copyFrom(n, &src.moreStamps, k, kEnd-k)

	wide[0] = r.rekey(src, wide[0], uint32(g0), uint32(end), shift)
	wide[1] = r.rekey(src, wide[1], moreBit|uint32(k), moreBit|uint32(kEnd), uint32(n-k))
}

// rekey moves src's wide stamps whose keys, among the ascending keys, lie
// in [lo, hi) to r under key+shift, and returns the keys from hi on; keys
// below lo belong to decoded slots.
func (r *run) rekey(src *run, keys []uint32, lo, hi, shift uint32) []uint32 {
	for ; len(keys) > 0 && keys[0] < hi; keys = keys[1:] {
		if keys[0] >= lo {
			r.setWide(keys[0]+shift, src.wide[keys[0]])
		}
	}
	return keys
}

// finish closes the directory of a run add and splice have finished
// filling and re-allocates any column carrying more than 1/64 spare
// capacity: a run lives until its shard's next merge, which on a quiet
// shard is never.
func (r *run) finish() {
	if len(r.lo) > 0 {
		r.dir = append(r.dir, uint32(len(r.lo)))
	}
	r.lo = clip(r.lo)
	r.moreHashes = clip(r.moreHashes)
	r.dir = clip(r.dir)
	r.refs.trim(len(r.lo))
	r.stamps.trim(len(r.lo))
	r.moreRefs.trim(len(r.moreHashes))
	r.moreStamps.trim(len(r.moreHashes))
}

// remap re-packs the ref columns of a freshly built run with every ref
// replaced by refs[ref].
func (r *run) remap(refs []uint32) {
	inline, spill := make([]uint32, len(r.lo)), make([]uint32, len(r.moreHashes))
	maxRef := uint32(0)
	for g := range inline {
		v := r.first(g)
		ref := refs[v&^moreBit]
		maxRef = max(maxRef, ref)
		inline[g] = refCode(ref | v&moreBit)
	}
	for k := range spill {
		ref := refs[r.moreRef(k)]
		maxRef = max(maxRef, ref)
		spill[k] = refCode(ref)
	}
	w := codeWidth(refCode(maxRef | moreBit))
	r.refs, r.moreRefs = packCodes(inline, w), packCodes(spill, w)
}

// clip returns s in an exact-size copy if it carries more than 1/64 spare
// capacity, else s itself.
func clip[T uint16 | uint32 | uint64](s []T) []T {
	if n := len(s); cap(s)-n > n/64 {
		return append(make([]T, 0, n), s...)
	}
	return s
}

// bigSets builds the membership sets of a freshly built run (no tombstones
// yet): one per group of at least bigGroupMin postings.
func (r *run) bigSets() map[uint32]map[uint32]struct{} {
	var big map[uint32]map[uint32]struct{}
	for lo := 0; lo < len(r.moreHashes); {
		h := r.moreHashes[lo]
		hi := lo + 1
		for hi < len(r.moreHashes) && r.moreHashes[hi] == h {
			hi++
		}
		if n := 1 + hi - lo; n >= bigGroupMin {
			set := make(map[uint32]struct{}, n)
			set[r.first(r.find(h))&^moreBit] = struct{}{}
			for k := lo; k < hi; k++ {
				set[r.moreRef(k)] = struct{}{}
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

// runHasSeg reports whether the run group g of h holds a live posting for
// ref, and whether the group has any live posting at all. The shard's big
// set for h, when present, answers the first in O(1).
func (sh *hashShard) runHasSeg(h uint32, g int, ref uint32) (inRun, anyLive bool) {
	first := sh.run.first(g)
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
			if sh.run.moreRef(k) == ref {
				return true, true
			}
		}
	}
	return false, true
}

// tombstone marks ref's posting in group g of h dead, returning its seq
// (for digest maintenance) and whether there was one. When the inline
// holder dies the next live spilled posting takes its slot, so the slot
// keeps naming the group's oldest live holder; first(g) == tombstoneRef
// afterwards means the group is empty.
func (sh *hashShard) tombstone(h uint32, g int, ref uint32) (seq uint64, killed bool) {
	r := &sh.run
	first := r.first(g)
	if first == tombstoneRef {
		return 0, false
	}
	k, hi := 0, 0
	if first&moreBit != 0 {
		k, hi = r.more(h)
	}
	if first&^moreBit == ref {
		seq = r.firstSeq(g)
		delete(r.wide, uint32(g))
		for k < hi && r.moreRef(k) == tombstoneRef {
			k++
		}
		if k < hi {
			// The successor's code is against its own born stamp, and
			// the inline and spill columns share a width.
			next := r.moreRef(k)
			r.stamps.set(g, r.code(r.moreSeq(k), next, uint32(g)))
			r.setFirst(g, next|moreBit)
			r.killMore(k)
		} else {
			r.setFirst(g, tombstoneRef)
		}
	} else {
		for k < hi && r.moreRef(k) != ref {
			k++
		}
		if k == hi {
			return 0, false
		}
		seq = r.moreSeq(k)
		r.killMore(k)
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
	for g := range sh.run.lo {
		if sh.run.first(g) != tombstoneRef && sh.run.firstSeq(g) < cutoff {
			return true
		}
	}
	for i, r := range sh.head.rows {
		if r.ref != emptyRow && sh.head.seq(i) < cutoff {
			return true
		}
	}
	return false
}

// shouldCompactLocked is the inline merge policy: merge when the head holds
// at least a thirty-second of the run's live postings, or when tombstones
// reach half the run. A merge splices the run's untouched stretches over as
// bits and decodes only the groups the head also holds, so at 33/32 growth
// per merge a posting is copied ≈ 22 times per doubling of its run but
// decoded about once. A head lies anywhere below that bound, and winnowed
// hashes crowd the low shards, so the bound sets how far the heap after an
// ingest moves with its input: ±1.7 % at a sixteenth, ±0.7 % at a
// thirty-second, at no measurable ingest cost.
func (db *DB) shouldCompactLocked(sh *hashShard) bool {
	if db.headOnly {
		return false
	}
	runLive := sh.run.postings() - sh.dead
	return sh.headPostings > 0 && sh.headPostings*32 >= runLive || sh.dead > 0 && sh.dead*2 >= sh.run.postings()
}

func (db *DB) maybeCompactLocked(sh *hashShard) {
	if db.shouldCompactLocked(sh) {
		db.compactShardLocked(sh, 0)
	}
}

// Compact merges every shard's mutable head into its compacted run and
// drops tombstones. It is safe to call concurrently with reads and writes
// (each shard is merged under its write lock) and is idempotent. bftagd
// runs it periodically (-compact-every).
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

// headKeys returns hash<<32 | row for every row of the shard's head,
// ascending.
func (sh *hashShard) headKeys() []uint64 {
	keys := make([]uint64, 0, sh.head.n)
	for i, r := range sh.head.rows {
		if r.ref != emptyRow {
			keys = append(keys, uint64(r.hash)<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	return keys
}

// walkHashesLocked calls visit for every hash present in the shard's run
// or head, ascending, with its run group (or -1) and head row (or -1).
func (sh *hashShard) walkHashesLocked(visit func(h uint32, g, i int)) {
	keys := sh.headKeys()
	c, j := runCursor{r: &sh.run}, 0
	for c.ok() || j < len(keys) {
		var h, hk uint32
		i := -1
		if c.ok() {
			h = c.hash()
		}
		if j < len(keys) {
			hk, i = uint32(keys[j]>>32), int(uint32(keys[j]))
		}
		switch {
		case j >= len(keys) || (c.ok() && h < hk):
			visit(h, c.g, -1)
			c.next()
		case !c.ok() || hk < h:
			visit(hk, -1, i)
			j++
		default:
			visit(h, c.g, i)
			c.next()
			j++
		}
	}
}

// compactShardLocked writes sh.run anew as the merge of the current run
// (minus tombstones) and the head, and drops the head. Postings first seen
// before cutoff are dropped on the way (ExpireBefore's pass; 0 keeps
// everything): it returns how many were, and how many hashes lost their
// last holder to that. Caller holds sh.mu for writing.
//
// One walk takes the head's hashes in order. The run's groups between two
// of them are spliced over unchanged (run.splice), at the run's column
// widths, widened where the head's codes need it; a group the head also
// holds, and a hash only the head holds, is decoded through postingIter
// and coded anew. A merge that can drop postings — the run holds
// tombstones, or cutoff is set — decodes every group into columns that
// start at the narrowest widths, so they end at those of what is left.
//
// The merge preserves every surviving (hash, seg, seq) triple exactly and
// keeps groups seq-ascending, so verdict and oldest-holder semantics are
// byte-identical before and after — the golden-equivalence property the
// compaction tests pin.
func (db *DB) compactShardLocked(sh *hashShard, cutoff uint64) (expired, emptied int) {
	old := &sh.run
	decodeAll := sh.dead > 0 || cutoff > 0

	// at[j] places keys[j]'s hash in the old run: its group<<1 | 1, or the
	// group it goes before<<1.
	keys := sh.headKeys()
	at := make([]uint32, len(keys))
	shared := 0
	for j, key := range keys {
		g, ok := old.search(uint32(key >> 32))
		at[j] = uint32(g) << 1
		if ok {
			at[j] |= 1
			shared++
		}
	}

	// The sizes are exact unless the merge drops postings; finish trims
	// what they overshoot by. A splice starts from the old run's widths,
	// a merge that decodes everything from the narrowest, and add widens
	// either as the codes it writes need.
	groups := len(old.lo) + len(keys) - shared
	var refWidth, stampWidth uint
	if !decodeAll {
		refWidth, stampWidth = old.refs.width, old.stamps.width
	}
	nw := newRun(&db.born, groups, old.postings()+sh.headPostings-groups, refWidth, stampWidth)
	lowest, highest := ^uint32(0), uint32(0) // high halves
	if len(old.lo) > 0 {
		lowest, highest = old.key0, old.key0+uint32(len(old.dir))-2
	}
	if len(keys) > 0 {
		lowest, highest = min(lowest, uint32(keys[0]>>48)), max(highest, uint32(keys[len(keys)-1]>>48))
	}
	if lowest <= highest {
		nw.dir = make([]uint32, 0, highest-lowest+2)
	}

	var wide [2][]uint32 // splice's keys of the old run's wide stamps: inline, spilled
	if !decodeAll && len(old.wide) > 0 {
		all := make([]uint32, 0, len(old.wide))
		for key := range old.wide {
			all = append(all, key)
		}
		slices.Sort(all)
		split, _ := slices.BinarySearch(all, moreBit)
		wide = [2][]uint32{all[:split], all[split:]}
	}

	c, k := runCursor{r: old}, 0 // the old run's next group and spilled posting
	spillEnd := func(h uint32) int {
		hi := k
		for hi < len(old.moreHashes) && old.moreHashes[hi] == h {
			hi++
		}
		return hi
	}
	// decode writes h's postings — old group g's (or none: -1), whose
	// spill is k … hi−1, merged with head row i's (or none) — to nw.
	decode := func(h uint32, g, hi, i int) {
		kept, dropped := nw.postings(), 0
		it := sh.postingsIn(h, g, k, hi, i)
		for ref, seq, ok := it.next(); ok; ref, seq, ok = it.next() {
			if seq < cutoff {
				sh.digest ^= postingCode(h, segDigestKey(string(db.tab.ID(ref))), seq)
				dropped++
				continue
			}
			nw.add(h, ref, seq)
		}
		k = hi
		expired += dropped
		if dropped > 0 && nw.postings() == kept {
			emptied++
		}
	}
	for j := 0; ; j++ {
		// The old run's groups before keys[j]'s hash, or all that are left.
		end, h := len(old.lo), uint32(0)
		if j < len(keys) {
			end, h = int(at[j]>>1), uint32(keys[j]>>32)
		}
		switch {
		case decodeAll:
			for ; c.g < end; c.next() {
				hg := c.hash()
				decode(hg, c.g, spillEnd(hg), -1)
			}
		case c.g < end:
			kEnd := len(old.moreHashes) // the spill of groups below h
			if j < len(keys) {
				kEnd, _ = slices.BinarySearch(old.moreHashes[k:], h)
				kEnd += k
			}
			nw.splice(&c, end, k, kEnd, &wide)
			k = kEnd
		}
		if j == len(keys) {
			break
		}
		if at[j]&1 == 0 {
			decode(h, -1, k, int(uint32(keys[j])))
			continue
		}
		decode(h, c.g, spillEnd(h), int(uint32(keys[j])))
		c.next()
	}

	nw.finish()
	db.runBytes.Add(nw.bytes() - old.bytes())
	sh.run = nw
	sh.big = nw.bigSets()
	// Dropped, not cleared: the next cycle's head is usually smaller than
	// the one that triggered a merge.
	db.headRows.Add(int64(-len(sh.head.rows)))
	sh.head, sh.over = headTable{}, nil
	db.headN.Add(int64(-sh.headPostings))
	db.deadN.Add(int64(-sh.dead))
	sh.headPostings = 0
	sh.dead = 0
	return expired, emptied
}

// postingIter walks one hash's live postings oldest first: its run group
// (inline holder, then the spill) merged with its head entry (inline row,
// then the overflow bucket). On equal stamps the run goes first, the order
// an uncompacted head would hold.
type postingIter struct {
	r      *run
	g      int // run group whose inline holder is still to come, or -1
	k, hi  int // spill range still to come
	slot   posting
	inHead bool      // slot is still to come
	over   []posting // overflow still to come
}

// postingsOf starts an iteration over h, given its run group (or -1) and
// head row (or -1). Caller holds sh.mu at least for reading.
func (sh *hashShard) postingsOf(h uint32, g, i int) postingIter {
	k, hi := 0, 0
	if g >= 0 {
		if first := sh.run.first(g); first != tombstoneRef && first&moreBit != 0 {
			k, hi = sh.run.more(h)
		}
	}
	return sh.postingsIn(h, g, k, hi, i)
}

// postingsIn is postingsOf given group g's spill range, k … hi−1.
func (sh *hashShard) postingsIn(h uint32, g, k, hi, i int) postingIter {
	it := postingIter{r: &sh.run, g: -1, k: k, hi: hi}
	if g >= 0 && sh.run.first(g) != tombstoneRef {
		it.g = g
	}
	if i >= 0 {
		ref := sh.head.rows[i].ref
		it.slot, it.inHead = posting{ref: ref &^ moreBit, seq: sh.head.seq(i)}, true
		if ref&moreBit != 0 {
			it.over = sh.over[h].postings
		}
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
		rref, rseq, rok = it.r.first(it.g)&^moreBit, it.r.firstSeq(it.g), true
	} else {
		for it.k < it.hi && it.r.moreRef(it.k) == tombstoneRef {
			it.k++
		}
		if it.k < it.hi {
			rref, rseq, rok = it.r.moreRef(it.k), it.r.moreSeq(it.k), true
		}
	}
	if it.inHead {
		href, hseq, hok = it.slot.ref, it.slot.seq, true
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
func (sh *hashShard) appendPostingsLocked(h uint32, g, i int, out []posting) []posting {
	it := sh.postingsOf(h, g, i)
	for ref, seq, ok := it.next(); ok; ref, seq, ok = it.next() {
		out = append(out, posting{ref: ref, seq: seq})
	}
	return out
}

// oldestLocked resolves the authoritative (oldest live) holder of h: each
// tier names its oldest inline, and the run wins a tie. The run holder's
// stamp costs a born-stamp read, so it is decoded only when the head holds
// h too or withSeq asks for it; otherwise seq is 0. Caller holds sh.mu at
// least for reading.
func (db *DB) oldestLocked(sh *hashShard, h uint32, withSeq bool) (ref uint32, seq uint64, ok bool) {
	g := sh.run.find(h)
	if g >= 0 {
		if first := sh.run.first(g); first != tombstoneRef {
			ref, ok = first&^moreBit, true
		}
	}
	i := sh.head.find(h)
	if ok && (withSeq || i >= 0) {
		seq = sh.run.firstSeq(g)
	}
	if i >= 0 {
		if s := sh.head.seq(i); !ok || s < seq {
			return sh.head.rows[i].ref &^ moreBit, s, true
		}
	}
	return ref, seq, ok
}
