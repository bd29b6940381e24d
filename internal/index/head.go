package index

// The mutable head of a hash shard: an open-addressed table of fixed
// 12-byte rows, one per hash, holding the hash's oldest head holder
// inline, plus overflow buckets for the few hashes with later head
// holders.
//
//	hash   the row's hash
//	ref    interned ref of its oldest head holder, moreBit set when later
//	       holders wait in the shard's overflow bucket; emptyRow if free
//	off    that holder's stamp as a signed offset from the table's base
//
// A row's home is the hash after one multiply, reduced to the capacity by
// a multiply-shift, so the capacity need not be a power of two and the
// table grows by a quarter at a time; a shard's hashes share their top
// bits (the shard index), and the multiply spreads the bits that vary.
// Probing is linear and deletion shifts the rows behind a hole back
// towards their homes, so the table has no tombstones and a probe stops
// at the first free row.
//
// Stamps are uint64 and can jump by any amount (SetClockFloor) or arrive
// older than the base (seqs are drawn before the shard lock), so an
// offset that does not fit 32 signed bits is the sentinel wideOff and the
// full stamp sits in the wide side map, keyed by hash because rows move.
//
// The table is made at the shard's first insert and dropped whole when
// the shard merges (see compactShardLocked).

import (
	"math"
	"slices"
)

const (
	// emptyRow is the ref of a free row. A live ref, even tagged moreBit,
	// stays below it.
	emptyRow = ^uint32(0)

	// wideOff in a row's off sends the reader to headTable.wide.
	wideOff = math.MinInt32

	// headMinRows is a table's capacity at its first insert. It grows by
	// a quarter before an insert would take it past three quarters full,
	// so a table that has grown is about 60–75 % full: 16–20 B per row.
	headMinRows = 16
)

// memberMapThreshold is the posting count past which a head overflow
// bucket switches from a linear membership scan to a map. Most hashes have
// a handful of holders, where a scan over a small slice beats a map
// allocation; hot hashes shared by many segments get the O(1) set the
// moment the scan would start to hurt.
const memberMapThreshold = 8

// headRow is one hash's row of a head table (layout in the file comment).
type headRow struct {
	hash, ref uint32
	off       int32
}

// headTable is a shard's head rows. Zero value = empty table.
type headTable struct {
	rows []headRow
	n    int               // rows in use
	base uint64            // the first insert's stamp: offsets are from it
	wide map[uint32]uint64 // stamps of the rows whose off is wideOff, by hash
}

// home is h's first probe position.
func (t *headTable) home(h uint32) int {
	return int(uint64(h*0x9e3779b1) * uint64(len(t.rows)) >> 32)
}

// find returns h's row, or -1.
func (t *headTable) find(h uint32) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(h); ; {
		switch r := &t.rows[i]; {
		case r.ref == emptyRow:
			return -1
		case r.hash == h:
			return i
		}
		if i++; i == len(t.rows) {
			i = 0
		}
	}
}

// seq is the stamp of row i.
func (t *headTable) seq(i int) uint64 {
	if off := t.rows[i].off; off != wideOff {
		return t.base + uint64(int64(off))
	}
	return t.wide[t.rows[i].hash]
}

// set stores ref and seq in row i, whose hash is set.
func (t *headTable) set(i int, ref uint32, seq uint64) {
	r := &t.rows[i]
	r.ref = ref
	if t.wide != nil {
		delete(t.wide, r.hash)
	}
	if d := int64(seq - t.base); d > wideOff && d <= math.MaxInt32 {
		r.off = int32(d)
		return
	}
	if t.wide == nil {
		t.wide = make(map[uint32]uint64)
	}
	t.wide[r.hash] = seq
	r.off = wideOff
}

// insert adds a row for h, which the table must not hold yet.
func (t *headTable) insert(h, ref uint32, seq uint64) {
	if t.n >= len(t.rows)*3/4 {
		if t.n == 0 {
			t.base = seq
		}
		t.grow()
	}
	i := t.home(h)
	for t.rows[i].ref != emptyRow {
		if i++; i == len(t.rows) {
			i = 0
		}
	}
	t.rows[i].hash = h
	t.set(i, ref, seq)
	t.n++
}

// grow re-homes every row into a table a quarter larger, or as much
// larger as the allocator's size class for that many rows leaves room for:
// the rounding is retained either way.
func (t *headTable) grow() {
	old := t.rows
	t.rows = slices.Grow([]headRow(nil), max(headMinRows, len(old)+len(old)/4))
	t.rows = t.rows[:cap(t.rows)]
	for i := range t.rows {
		t.rows[i].ref = emptyRow
	}
	for _, r := range old {
		if r.ref == emptyRow {
			continue
		}
		i := t.home(r.hash)
		for t.rows[i].ref != emptyRow {
			if i++; i == len(t.rows) {
				i = 0
			}
		}
		t.rows[i] = r
	}
}

// remove frees row i. Each row behind it up to the next free one moves
// into the hole when the hole lies between the row's home and its place,
// which leaves every probe sequence unbroken.
func (t *headTable) remove(i int) {
	if t.rows[i].off == wideOff {
		delete(t.wide, t.rows[i].hash)
	}
	n := len(t.rows)
	for j := i + 1; ; j++ {
		if j == n {
			j = 0
		}
		r := t.rows[j]
		if r.ref == emptyRow {
			break
		}
		if k := t.home(r.hash); (j-k+n)%n >= (j-i+n)%n {
			t.rows[i] = r
			i = j
		}
	}
	t.rows[i] = headRow{ref: emptyRow}
	t.n--
}

// bucket holds the head holders of a hash beyond its inline one, ordered by
// ascending seq, plus an optional membership set for large buckets.
type bucket struct {
	postings []posting
	members  map[uint32]struct{} // nil until memberMapThreshold exceeded
}

// has reports whether ref already holds this hash.
func (b *bucket) has(ref uint32) bool {
	if b.members != nil {
		_, ok := b.members[ref]
		return ok
	}
	for _, p := range b.postings {
		if p.ref == ref {
			return true
		}
	}
	return false
}

// insert records (ref, seq), which the bucket must not hold yet. It keeps
// postings sorted by seq: seqs are assigned before stripe locks are
// acquired, so a slightly older observation can arrive after a newer one;
// insertion from the back restores first-seen order (almost always a pure
// append).
func (b *bucket) insert(ref uint32, seq uint64) {
	i := len(b.postings)
	b.postings = append(b.postings, posting{})
	for i > 0 && b.postings[i-1].seq > seq {
		b.postings[i] = b.postings[i-1]
		i--
	}
	b.postings[i] = posting{ref: ref, seq: seq}
	if b.members != nil {
		b.members[ref] = struct{}{}
	} else if len(b.postings) > memberMapThreshold {
		b.members = make(map[uint32]struct{}, len(b.postings))
		for _, p := range b.postings {
			b.members[p.ref] = struct{}{}
		}
	}
}

// removeAt deletes the i-th posting, preserving seq order.
func (b *bucket) removeAt(i int) {
	if b.members != nil {
		delete(b.members, b.postings[i].ref)
	}
	b.postings = append(b.postings[:i], b.postings[i+1:]...)
}

// headHas reports whether ref is among h's head holders, i being h's head
// row.
func (sh *hashShard) headHas(h uint32, i int, ref uint32) bool {
	r := sh.head.rows[i].ref
	return r&^moreBit == ref || (r&moreBit != 0 && sh.over[h].has(ref))
}

// headInsert adds (ref, seq) to h's head holders, which must not include
// ref yet; i is h's head row, or -1. The row keeps the oldest: a stamp
// older than the row's takes its place and the displaced holder moves to
// the overflow bucket.
func (sh *hashShard) headInsert(h uint32, i int, ref uint32, seq uint64) {
	t := &sh.head
	if i < 0 {
		t.insert(h, ref, seq)
		return
	}
	b := sh.over[h]
	if b == nil {
		if sh.over == nil {
			sh.over = make(map[uint32]*bucket)
		}
		b = &bucket{}
		sh.over[h] = b
	}
	inline, old := t.rows[i].ref&^moreBit, t.seq(i)
	if seq < old {
		t.set(i, ref|moreBit, seq)
		ref, seq = inline, old
	} else {
		t.rows[i].ref |= moreBit
	}
	b.insert(ref, seq)
}

// headRemove deletes ref from h's head holders, returning the removed
// posting's seq (the digest maintenance needs it) and whether there was
// one. When the inline holder goes, the oldest overflow posting takes the
// row.
func (sh *hashShard) headRemove(h, ref uint32) (seq uint64, removed bool) {
	t := &sh.head
	i := t.find(h)
	if i < 0 {
		return 0, false
	}
	b := sh.over[h] // nil unless the row is tagged moreBit
	switch {
	case t.rows[i].ref&^moreBit == ref:
		seq = t.seq(i)
		if b == nil {
			t.remove(i)
			return seq, true
		}
		t.set(i, b.postings[0].ref|moreBit, b.postings[0].seq)
		b.removeAt(0)
	case b != nil:
		k := 0
		for k < len(b.postings) && b.postings[k].ref != ref {
			k++
		}
		if k == len(b.postings) {
			return 0, false
		}
		seq = b.postings[k].seq
		b.removeAt(k)
	default:
		return 0, false
	}
	if len(b.postings) == 0 {
		delete(sh.over, h)
		t.rows[i].ref &^= moreBit
	}
	return seq, true
}
