package index

// Binary snapshot codec for one DB: the payload of the docs/pars sections
// of the BFLOWSNB state image (see internal/store; DESIGN.md §9 has the
// byte accounting). Every fact has one home: a fingerprint is the transpose
// of the posting stream, one flag per posting; a stamp is its distance
// below the holder's DBpar updated, zero unless the segment was edited
// after it first posted the hash; a threshold is stored where it differs
// from the default; sorted segment IDs are front-coded, and the registry
// section (internal/tdm) names segments through the paragraph section's
// table. The postings are two bit streams (wire.AppendBits), a ref in them
// ⌈log2 table length⌉ bits wide.
//
//	u8      codec version (4)
//	u64     clock, u64 defaultThreshold (IEEE 754 bits), little endian
//	uvarint segment-table length
//	  per entry, ascending by ID: wire.AppendFrontCoded
//	uvarint DBpar entry count
//	  per entry, ascending by table ref:
//	    uvarint refs skipped since the previous entry << 1 | own threshold
//	    u64 threshold bits, only with the own-threshold bit
//	    varint updated − the previous entry's, uvarint fingerprint length
//	uvarint distinct hash count, uvarint total posting count
//	group stream, per hash ascending, its postings oldest first:
//	    first holder's ref; shape: 0 single holder, 10 repeat, 11 spelled
//	    flagged bit, unless a repeat; spelled: γ(count), the later refs
//	    flagged: per posting flagStale | flagStamped in 2 bits, and with
//	    flagStamped distanceCode(zigzag(holder's base − stamp))
//	hash stream, per 1/64 of the hash space: γ(hash count + 1), then with
//	  hashes a 5-bit Rice parameter and the Rice codes of the first hash's
//	  offset in the 1/64 and of each later gap less one
//	uvarint unposted count
//	  per fingerprint hash without a live posting, ascending by (ref, hash):
//	    uvarint ref, uvarint hash
//
// A holder's base is its DBpar updated, or the clock for a segment without
// an entry (images written while RemoveSegment took only a segment's last
// version hold such postings); the distance is signed, so any (ref, stamp)
// pair round-trips. A posting that is not stale adds its hash to the
// holder's fingerprint; hashes ascend, so each fingerprint fills in order.
// A group is flagged unless every posting is in its holder's fingerprint
// at its base. A repeat's later holders are those of the last group its
// first holder led that spelled them out, both groups unflagged: a pasted
// paragraph's copies cost no bits after its first hash. Every other group
// costs at least a bit a posting, and a repeat is written only while the
// postings stay within the payload's bits, so the decoder refuses declared
// lengths or a posting total past them. The unposted list is what
// ExpireBefore can leave — a posting expired, its segment did not — and
// the decoder checks every fingerprint reaches its declared length. Codec
// 3 (container version 6) is still read: updated absolute, distances γ(d).
//
// The encoding is a pure function of the DB's logical contents, so the
// same state encodes to the same bytes regardless of shard count or merge
// history and a replica can persist a primary's snapshot verbatim. Decoding
// builds the compacted runs directly, in one pass, and the restored DB
// starts with nothing in the mutable heads. A malformed payload is a
// *wire.Error with the payload offset where decoding failed.

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

const snapshotCodecVersion = 4 // codec 3 is read, never written

// AppendSnapshot appends the DB's binary snapshot to buf and returns the
// extended slice. The DB takes its own consistent cut: every segment
// stripe and then every hash shard is read-locked until the group stream
// is written, so the image is the DB's exact state at one instant and the
// call is safe beside any other operation — observes, Compact,
// ExpireBefore — which simply wait. The order (ascending, all stripes
// before any shard) cannot deadlock under the package's lock ordering: no
// writer waits for a stripe while holding a shard, and none holds two
// locks of one kind. The hash stream and the unposted list are written
// after the locks are released, from the encoder's own lists. It also
// returns the image's segment table, ascending by ID, which the registry
// section names its segments by.
func (db *DB) AppendSnapshot(buf []byte) ([]byte, []segment.ID) {
	buf, table, hashes, unposted := db.appendCut(buf)
	buf = wire.AppendBits(buf, func(w *wire.BitWriter) { writeHashStream(w, hashes) })
	slices.Sort(unposted)
	buf = binary.AppendUvarint(buf, uint64(len(unposted)))
	for _, u := range unposted {
		buf = binary.AppendUvarint(buf, u>>32)
		buf = binary.AppendUvarint(buf, u&math.MaxUint32)
	}
	return buf, table
}

// appendCut appends the image up to its hash stream under the locks, and
// returns its segment table, the hashes in the order they were posted and
// the fingerprint hashes without a live posting, as ref << 32 | hash.
func (db *DB) appendCut(buf []byte) (_ []byte, ids []segment.ID, hashes []uint32, unposted []uint64) {
	defer db.lockStripes(false)()
	for si := range db.hashShards {
		db.hashShards[si].mu.RLock()
	}
	defer func() {
		for si := range db.hashShards {
			db.hashShards[si].mu.RUnlock()
		}
	}()

	// The image's table is the referenced segments — DBpar entries and live
	// postings — sorted by ID; pos maps a ref's rank among them to its
	// place in it.
	held := db.heldRefs()
	var rows []*parRow
	db.eachRow(func(row *parRow) { rows = append(rows, row) })
	table := held.members()
	slices.SortFunc(table, func(a, b uint32) int { return cmp.Compare(db.tab.ID(a), db.tab.ID(b)) })
	pos := make([]uint32, len(table))
	for i, r := range table {
		pos[held.rank(r)] = uint32(i)
	}

	// Header and segment table.
	start, clock := len(buf), db.clock.Load()
	thrBits := math.Float64bits(db.defaultThreshold)
	buf = append(buf, snapshotCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, clock)
	buf = binary.LittleEndian.AppendUint64(buf, thrBits)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	ids = make([]segment.ID, len(table))
	prevSeg := ""
	for i, r := range table {
		ids[i] = db.tab.ID(r)
		buf = wire.AppendFrontCoded(buf, prevSeg, string(ids[i]))
		prevSeg = string(ids[i])
	}

	// DBpar entries, ascending by (new) ref. holders is the other side of
	// the merge join below: per table ref, what its postings' stamps are
	// stored against and the fingerprint hashes the posting stream has yet
	// to reach.
	type holder struct {
		base uint64
		fp   []uint32
	}
	holders := make([]holder, len(table))
	for i := range holders {
		holders[i].base = clock
	}
	slices.SortFunc(rows, func(a, b *parRow) int { return cmp.Compare(pos[held.rank(a.ref)], pos[held.rank(b.ref)]) })
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	next, updated := uint32(0), uint64(0)
	for _, row := range rows {
		ref := pos[held.rank(row.ref)]
		if row.flags&rowOwnThreshold == 0 {
			buf = binary.AppendUvarint(buf, uint64(ref-next)<<1)
		} else {
			buf = binary.AppendUvarint(buf, uint64(ref-next)<<1|1)
			ss := db.segShardFor(db.tab.ID(row.ref))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ss.own[row.ref]))
		}
		buf = binary.AppendVarint(buf, int64(row.updated-updated))
		buf = binary.AppendUvarint(buf, uint64(len(row.hashes)))
		holders[ref] = holder{base: row.updated, fp: row.hashes}
		next, updated = ref+1, row.updated
	}

	// Postings, globally ascending by hash: shard index is the hash's top
	// bits, so visiting shards in order yields global hash order; within a
	// shard, the sorted head keys merge with the run groups. Hashes ascend
	// inside every fingerprint too, so whether a posting's hash is in its
	// holder's fingerprint falls out of one cursor per holder, advanced as
	// the stream passes; the fingerprint hashes it steps over have no live
	// posting. A repeat is written only while the postings stay within the
	// payload's bits; past that its tail is spelled out, which costs at
	// least a bit a posting, as every other group does.
	hashes = make([]uint32, 0, db.distinct.Load())
	var (
		scratch []posting
		group   []groupPosting
		later   []uint32
		stamps  = distanceCode{adaptive: true}
		repeats = make(tails, len(table))
		posted  uint64
	)
	width := refWidth(len(table))
	buf = binary.AppendUvarint(buf, uint64(db.distinct.Load()))
	buf = binary.AppendUvarint(buf, uint64(db.postings.Load()))
	prefix := 8 * uint64(len(buf)-start)
	buf = wire.AppendBits(buf, func(w *wire.BitWriter) {
		for si := range db.hashShards {
			sh := &db.hashShards[si]
			sh.walkHashesLocked(func(h uint32, g, i int) {
				if scratch = sh.appendPostingsLocked(h, g, i, scratch[:0]); len(scratch) == 0 {
					return // fully tombstoned group
				}
				hashes, group = append(hashes, h), group[:0]
				for _, p := range scratch {
					ref := pos[held.rank(p.ref)]
					hd := &holders[ref]
					for len(hd.fp) > 0 && hd.fp[0] < h {
						unposted = append(unposted, uint64(ref)<<32|uint64(hd.fp[0]))
						hd.fp = hd.fp[1:]
					}
					gp := groupPosting{ref: ref, flags: flagStale}
					if len(hd.fp) > 0 && hd.fp[0] == h {
						gp.flags, hd.fp = 0, hd.fp[1:]
					}
					if d := int64(hd.base - p.seq); d != 0 {
						gp.flags, gp.distance = gp.flags|flagStamped, uint64(d<<1)^uint64(d>>63)
					}
					group = append(group, gp)
				}
				posted += uint64(len(group))
				mayRepeat := posted <= prefix+w.Len()+uint64(width)+2
				later = repeats.writeGroup(w, width, group, mayRepeat, &stamps, later[:0])
			})
		}
	})
	for ref := range holders {
		for _, h := range holders[ref].fp {
			unposted = append(unposted, uint64(ref)<<32|uint64(h))
		}
	}
	return buf, ids, hashes, unposted
}

// refSet is a set of refs of a segment table other owners may share, and
// each member's rank among the members: a bit per ref of the table and a
// count per 64 refs, where an array by ref would cost every encode 4
// bytes per ref of the whole table however few of them the DB holds.
type refSet struct {
	bits  []uint64
	below []uint32 // by word, the members in the words before it
	n     int
}

// heldRefs returns the set of refs the DB holds: its DBpar entries' and
// its live postings' holders, all interned before the caller's locks were
// taken. Caller holds every stripe and every shard.
func (db *DB) heldRefs() *refSet {
	s := &refSet{bits: make([]uint64, (db.tab.Len()+63)/64)}
	add := func(ref uint32) { s.bits[ref>>6] |= 1 << (ref & 63) }
	db.eachRow(func(row *parRow) { add(row.ref) })
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		for _, r := range sh.head.rows {
			if r.ref != emptyRow {
				add(r.ref &^ moreBit)
			}
		}
		for _, b := range sh.over {
			for _, p := range b.postings {
				add(p.ref)
			}
		}
		for g := range sh.run.lo {
			if r := sh.run.first(g); r != tombstoneRef {
				add(r &^ moreBit)
			}
		}
		for k := range sh.run.moreHashes {
			if r := sh.run.moreRef(k); r != tombstoneRef {
				add(r)
			}
		}
	}
	s.below = make([]uint32, len(s.bits))
	for i, w := range s.bits {
		s.below[i] = uint32(s.n)
		s.n += bits.OnesCount64(w)
	}
	return s
}

// rank returns the number of members below ref, a member.
func (s *refSet) rank(ref uint32) uint32 {
	w := ref >> 6
	return s.below[w] + uint32(bits.OnesCount64(s.bits[w]&(1<<(ref&63)-1)))
}

// members returns the members in ascending order, so each at its rank.
func (s *refSet) members() []uint32 {
	out := make([]uint32, 0, s.n)
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// The hash stream cuts the hash space into 1 << hashPartBits parts.
const (
	hashPartBits  = 6
	hashGapBits   = 32 - hashPartBits // a gap inside one part fits this many bits
	riceParamBits = 5
)

// writeHashStream writes the hash stream of the ascending hashes, each
// part with the Rice parameter log2 of its mean gap, rounded down: within
// 0.1 % of the best parameter's bits on the benchmark's images.
func writeHashStream(w *wire.BitWriter, hashes []uint32) {
	for part := uint32(0); part < 1<<hashPartBits; part++ {
		n := 0
		for n < len(hashes) && hashes[n]>>hashGapBits == part {
			n++
		}
		in, base := hashes[:n], part<<hashGapBits-1 // the first hash codes its offset
		hashes = hashes[n:]
		if w.Gamma(uint64(n) + 1); n == 0 {
			continue
		}
		k := uint(max(bits.Len32((in[n-1]-base)/uint32(n)), 1) - 1)
		w.Write(uint64(k), riceParamBits)
		for i, prev := 0, base; i < n; prev, i = in[i], i+1 {
			w.Rice(uint64(in[i]-prev-1), k)
		}
	}
}

// refWidth is the width of a ref in an image whose table holds n segments.
func refWidth(n int) uint { return uint(bits.Len(uint(max(n, 1) - 1))) }

// groupPosting is one posting of a group being written.
type groupPosting struct {
	ref             uint32
	flags, distance uint64 // distance: the zigzagged base − stamp
}

// Posting flags, written per posting of a flagged group.
const (
	flagStale   = 1 << iota // the hash is off the holder's fingerprint, or the holder has no entry
	flagStamped             // the stamp is not the holder's base: its distance follows
)

// distanceCode is the adaptive exp-Golomb code both ends of a group stream
// run over its distances in stream order: d ≥ 1 is γ(((d−1) >> k) + 1) and
// the k low bits of d−1, k the least with n·2^k ≥ sum over the n distances
// so far (LOCO-I's rule), both halved when n reaches 64. So the image needs
// no parameter. At k = 0, codec 3's reading (adaptive unset), it is γ(d).
type distanceCode struct {
	sum, n   uint64
	adaptive bool
}

func (c *distanceCode) k() uint {
	if !c.adaptive || c.n == 0 {
		return 0
	}
	return uint(bits.Len64((c.sum - 1) / c.n))
}

// add counts d into the running mean. Both ends wrap a sum past 64 bits
// alike, so it costs bits, never a mismatch.
func (c *distanceCode) add(d uint64) {
	if c.sum, c.n = c.sum+d, c.n+1; c.n == 64 {
		c.sum, c.n = c.sum>>1, 32
	}
}

func (c *distanceCode) write(w *wire.BitWriter, d uint64) {
	k := c.k()
	w.Gamma((d-1)>>k + 1)
	w.Write(d-1, k)
	c.add(d)
}

// read reads a distance, refusing one past 64 bits.
func (c *distanceCode) read(r *wire.BitReader) uint64 {
	k := c.k()
	q := r.Gamma("posting stamp distance") - 1
	if v := q<<k | r.Read(k, "posting stamp distance"); q <= math.MaxUint64>>k && v < math.MaxUint64 {
		c.add(v + 1)
		return v + 1
	}
	r.Fail("posting stamp distance past 64 bits")
	return 0
}

// tails is what both ends of the group stream keep to code a repeat: per
// first holder, the later holders of the last group it led that spelled
// them out, when that group was unflagged.
type tails [][]uint32

func (t tails) remember(first uint32, later []uint32, flagged bool) {
	t[first] = nil
	if !flagged {
		t[first] = slices.Clone(later)
	}
}

// writeGroup writes one group, oldest posting first, its distances in
// stamps, using later as scratch; it spells a repeatable tail out unless
// mayRepeat.
func (t tails) writeGroup(w *wire.BitWriter, width uint, group []groupPosting, mayRepeat bool, stamps *distanceCode, later []uint32) []uint32 {
	first, flags := group[0].ref, uint64(0)
	for i, p := range group {
		if flags |= p.flags; i > 0 {
			later = append(later, p.ref)
		}
	}
	w.Write(uint64(first), width)
	switch {
	case len(later) == 0:
		w.Write(0, 1) // single holder
	case flags == 0 && mayRepeat && t[first] != nil && slices.Equal(t[first], later):
		w.Write(0b01, 2) // repeat: 1, then 0
		return later
	default:
		w.Write(0b11, 2) // spelled out: 1, then 1
	}
	w.Write(min(flags, 1), 1) // flagged
	if len(later) > 0 {
		w.Gamma(uint64(len(later)))
		for _, ref := range later {
			w.Write(uint64(ref), width)
		}
		t.remember(first, later, flags != 0)
	}
	if flags == 0 {
		return later
	}
	for _, p := range group {
		if w.Write(p.flags, 2); p.flags&flagStamped != 0 {
			stamps.write(w, p.distance)
		}
	}
	return later
}

// snapParRec is one decoded DBpar entry awaiting commit.
type snapParRec struct {
	ref       uint32
	threshold float64
	updated   uint64
	hashes    []uint32 // the fingerprint, filled to its declared length as the stream passes
	posted    []uint32 // the posted union, when it is not hashes
}

// PreparedSnapshot is a fully decoded and validated snapshot, sharded for
// the DB that prepared it and ready to commit. It lets a caller restoring
// several DBs validate every payload before committing any of them, so a
// corrupt second payload cannot leave the first DB already replaced.
type PreparedSnapshot struct {
	db      *DB
	clock   uint64
	thrBits uint64
	table   []segment.ID
	pars    []snapParRec
	runs    []run
	total   uint64

	// born is, by image ref, what the runs' stamp codes are against: the
	// holder's updated, or the clock without an entry — the image's own
	// zero distance (and never 0, DB.born's "none yet").
	born segment.Column[uint64]
}

// Table returns the image's segment table, ascending by ID.
func (p *PreparedSnapshot) Table() []segment.ID { return p.table }

// PrepareSnapshot decodes and validates a snapshot payload against this
// DB's shard layout without touching its state, so on error the DB is left
// unchanged — never partially loaded. The result must be passed to
// CommitSnapshot on the same DB (and is invalidated by it). Nothing in the
// prepared state aliases data, which may be a memory mapping.
func (db *DB) PrepareSnapshot(data []byte) (*PreparedSnapshot, error) {
	p := &PreparedSnapshot{db: db}
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p, nil
}

// decode does PrepareSnapshot's work: it fills p from data, sharded for
// p.db; a groupDecoder reads the posting streams.
func (p *PreparedSnapshot) decode(data []byte) error {
	db := p.db
	d := wire.NewReader(data)
	codec := d.Byte("codec version")
	if codec != snapshotCodecVersion && codec != 3 {
		return &wire.Error{Reason: "empty payload or unsupported codec version"}
	}
	clock, thrBits := d.U64("clock"), d.U64("default threshold")

	nSegs := uint64(d.Count("segment table length", 1))
	if nSegs >= uint64(moreBit-1) {
		return d.Fail("segment table too large for 31-bit refs")
	}
	table := make([]segment.ID, nSegs)
	var id []byte
	for i := range table {
		id = d.FrontCoded(id)
		table[i] = segment.ID(id)
		if d.Err() != nil || i > 0 && table[i] <= table[i-1] {
			return d.Fail("segment table not strictly ascending")
		}
	}

	nPar := d.Uvarint("DBpar entry count")
	if nPar > nSegs {
		return d.Fail("more DBpar entries than table segments")
	}
	pars := make([]snapParRec, nPar)
	refs := make([]refState, nSegs)
	for i := range refs {
		refs[i] = refState{base: clock, par: -1}
	}
	// The encoder writes no more postings than the payload has bits (past
	// that it spells repeats out), and each fingerprint hash is a posting
	// or a two-byte unposted entry, so the declared lengths and the posting
	// total are refused past the payload's bits: what an image decodes to
	// grows with its length. Declared lengths are allocated up front only
	// while they add up to no more than the payload's bytes.
	next, updated, declared, limit, budget := uint64(0), uint64(0), uint64(0), 8*uint64(len(data)), uint64(len(data))
	for i := range pars {
		ref := d.Uvarint("DBpar segment ref")
		ref, ownThreshold := next+ref>>1, ref&1 != 0
		if ref >= nSegs || ref < next {
			return d.Fail("DBpar segment ref out of range or not ascending")
		}
		tb := thrBits
		if ownThreshold {
			tb = d.U64("DBpar threshold")
		}
		if u := d.Uvarint("DBpar updated"); codec == 3 {
			updated = u
		} else {
			updated += u>>1 ^ -(u & 1)
		}
		if updated > clock {
			return d.Fail("DBpar updated exceeds clock")
		}
		nh := d.Uvarint("DBpar hash count")
		if d.Err() != nil || nh > math.MaxUint32 || declared+nh > limit {
			return d.Fail("DBpar hash counts exceed 32 bits or the payload's bits")
		}
		declared += nh
		var hashes []uint32
		if nh <= budget {
			hashes, budget = make([]uint32, 0, nh), budget-nh
		}
		pars[i] = snapParRec{ref: uint32(ref), threshold: math.Float64frombits(tb), updated: updated, hashes: hashes}
		refs[ref] = refState{base: updated, left: uint32(nh), par: int32(i)}
		next = ref + 1
	}
	for ref := range refs {
		*p.born.Make(uint32(ref)) = max(refs[ref].base, 1)
	}

	// Decode postings straight into run columns. Hashes ascend and the
	// shard is their top bits, so the shards fill one after the other; each
	// run grows by append, its columns as wide as its codes need, and its
	// directory is closed and its columns trimmed when its shard is
	// complete, so it ends at its shard's real share — winnowing keeps the
	// minimum hash of each window, hashes crowd towards zero, and that
	// share is anywhere between nothing and a quarter of the database. The
	// runs are swapped in only at commit, so a decode error leaves no
	// partial load.
	distinct, total := d.Uvarint("distinct hash count"), d.Uvarint("total posting count")
	if total > limit {
		return d.Fail("posting total exceeds the payload's bits")
	}
	g := &groupDecoder{d: d, db: db, clock: clock, refs: refs, pars: pars, total: total, runs: make([]run, len(db.hashShards)),
		stamps: distanceCode{adaptive: codec == snapshotCodecVersion}}
	for i := range g.runs {
		g.runs[i] = newRun(&p.born, 0, 0, 0, 0)
	}
	g.cur = &g.runs[0]
	g.readGroups(distinct)
	g.cur.finish()
	if d.Err() == nil && g.postings != total {
		return d.Fail("posting total mismatch")
	}

	// Fingerprint hashes without a live posting, sorted in behind the
	// posted ones; then every fingerprint must have its declared length.
	var prevRef, prevHash uint64
	for i, n := uint64(0), d.Uvarint("unposted count"); i < n && d.Err() == nil; i++ {
		ref, h := d.Uvarint("unposted segment ref"), d.Uvarint("unposted hash")
		if d.Err() != nil || ref >= nSegs || refs[ref].par < 0 {
			return d.Fail("unposted hash of a segment without a DBpar entry")
		}
		if h > math.MaxUint32 || i > 0 && (ref < prevRef || ref == prevRef && h <= prevHash) {
			return d.Fail("unposted hashes not strictly ascending 32-bit values")
		}
		prevRef, prevHash = ref, h
		st, rec := &refs[ref], &pars[refs[ref].par]
		if rec.posted == nil {
			// The posting stream is over, so hashes holds the union.
			rec.posted = append([]uint32{}, rec.hashes...)
		}
		if st.left == 0 {
			return d.Fail("fingerprint hashes exceed the declared length")
		}
		st.left--
		rec.hashes = append(rec.hashes, uint32(h))
		if st.left > 0 {
			continue
		}
		// Complete, and only now: the posting stream is over.
		if slices.Sort(rec.hashes); len(slices.Compact(rec.hashes)) < len(rec.hashes) {
			return d.Fail("unposted hash repeats a posted one")
		}
	}
	for i := range refs {
		if refs[i].left != 0 && d.Err() == nil {
			return d.Fail("fingerprint shorter than its declared length")
		}
	}
	if err := d.Done("snapshot payload"); err != nil {
		return err
	}

	p.clock, p.thrBits, p.table, p.pars, p.runs, p.total = clock, thrBits, table, pars, g.runs, total
	return nil
}

// refState is what decoding keeps per table ref: one row a posting reads.
type refState struct {
	base  uint64 // the holder's DBpar updated, or the clock without an entry
	left  uint32 // fingerprint hashes its entry declares that are still to come
	group uint32 // the last group it held a posting in, counting from 1
	par   int32  // its entry in pars, or -1
}

// groupDecoder takes the posting stream's groups, in hash order, into run
// columns and fingerprints. Its failures are the Reader's.
type groupDecoder struct {
	d               *wire.Reader
	db              *DB
	refs            []refState
	pars            []snapParRec
	runs            []run
	cur             *run
	h, group        uint32
	clock, prevSeq  uint64
	postings, total uint64
	stamps          distanceCode
}

// post adds the group's next posting: its holder's ref, its zigzagged
// distance below the holder's base, and whether it is stale. Hashes
// ascend, so a holder twice in one group would be a hash twice in a
// fingerprint.
func (g *groupDecoder) post(ref, distance uint64, stale bool) error {
	d := g.d
	switch {
	case d.Err() != nil:
		return d.Err()
	case ref >= uint64(len(g.refs)):
		return d.Fail("posting segment ref out of range")
	case g.postings == g.total:
		return d.Fail("posting groups exceed declared total")
	}
	st := &g.refs[ref]
	seq := st.base - (distance>>1 ^ -(distance & 1))
	switch {
	case seq > g.clock:
		return d.Fail("posting seq exceeds clock")
	case seq < g.prevSeq:
		return d.Fail("posting seqs not ascending")
	case st.group == g.group:
		return d.Fail("segment holds a hash twice")
	case !stale && st.par < 0:
		return d.Fail("fingerprint hash of a segment without a DBpar entry")
	case !stale && st.left == 0:
		return d.Fail("fingerprint hashes exceed the declared length")
	}
	g.postings++
	g.prevSeq, st.group = seq, g.group
	if st.par >= 0 {
		rec := &g.pars[st.par]
		if !stale {
			st.left--
			rec.hashes = append(rec.hashes, g.h)
		} else if rec.posted == nil {
			// The first posting off the fingerprint: the union parts
			// from hashes, which holds every posting so far.
			rec.posted = append([]uint32{}, rec.hashes...)
		}
		if rec.posted != nil {
			rec.posted = append(rec.posted, g.h)
		}
	}
	g.cur.add(g.h, uint32(ref), seq)
	return nil
}

// readGroups reads the group and hash streams.
func (g *groupDecoder) readGroups(distinct uint64) {
	d := g.d
	gs, hs := d.Bits("group stream"), d.Bits("hash stream")
	width, repeats := refWidth(len(g.refs)), make(tails, len(g.refs))
	var part, inPart, h uint64
	var k uint
	var later []uint32
	for i := uint64(0); i < distinct && d.Err() == nil; i++ {
		for ; inPart == 0; part++ {
			if part == 1<<hashPartBits || d.Err() != nil {
				d.Fail("hash stream holds fewer hashes than declared")
				return
			}
			if inPart = hs.Gamma("hash count") - 1; inPart > 0 {
				k = uint(hs.Read(riceParamBits, "Rice parameter"))
			}
			h = part<<hashGapBits - 1
		}
		if h += 1 + hs.Rice(k, hashGapBits, "hash gap"); h >= part<<hashGapBits {
			d.Fail("hash gap leaves its part of the hash space")
			return
		}
		inPart--
		if r := &g.runs[g.db.hashShardIdx(uint32(h))]; r != g.cur { // hashes ascend: the shards fill in turn
			g.cur.finish()
			g.cur = r
		}
		g.h, g.group, g.prevSeq = uint32(h), g.group+1, 0

		first, tail, flagged, spelled := gs.Read(width, "first holder"), []uint32(nil), uint64(0), false
		switch {
		case gs.Read(1, "group shape") == 0: // single holder
			flagged = gs.Read(1, "flagged bit")
		case gs.Read(1, "group shape") == 0: // repeat
			if first >= uint64(len(g.refs)) || repeats[first] == nil {
				d.Fail("repeat without an unflagged group to repeat")
				return
			}
			tail = repeats[first]
		default: // spelled out
			flagged, later = gs.Read(1, "flagged bit"), later[:0]
			n := gs.Gamma("later holder count")
			if n >= uint64(len(g.refs)) {
				d.Fail("more later holders than table segments")
				return
			}
			for j := uint64(0); j < n && d.Err() == nil; j++ {
				later = append(later, uint32(gs.Read(width, "later holder")))
			}
			tail, spelled = later, true
		}
		for j := -1; j < len(tail); j++ {
			ref, flags, distance := first, uint64(0), uint64(0)
			if j >= 0 {
				ref = uint64(tail[j])
			}
			if flagged != 0 {
				flags = gs.Read(2, "posting flags")
			}
			if flags&flagStamped != 0 {
				distance = g.stamps.read(gs)
			}
			if g.post(ref, distance, flags&flagStale != 0) != nil {
				return
			}
		}
		if spelled {
			repeats.remember(uint32(first), tail, flagged != 0)
		}
	}
	for ; part < 1<<hashPartBits && inPart == 0; part++ {
		inPart = hs.Gamma("hash count") - 1
	}
	if d.Err() == nil && inPart != 0 {
		d.Fail("hash stream holds more hashes than declared")
	}
	hs.Done("hash stream")
	gs.Done("group stream")
}

// CommitSnapshot swaps a prepared snapshot's state into the DB that
// prepared it, replacing all previous contents. It must not run
// concurrently with other operations on the same DB, and p must not be
// reused afterwards (the DB takes ownership of its arrays).
//
// The image's segments are interned in image order; into an empty table
// (a restore resets it first) the image's refs are the table's and nothing
// is remapped. Each ref's born stamp moves with it, so the runs' stamp
// codes stay as decoded.
func (db *DB) CommitSnapshot(p *PreparedSnapshot) {
	if p.db != db {
		panic("index: CommitSnapshot on a DB other than the one that prepared it")
	}
	db.reset()
	db.defaultThreshold = math.Float64frombits(p.thrBits)
	db.clock.Store(p.clock)
	refs := make([]uint32, len(p.table))
	remap := false
	for i, seg := range p.table {
		refs[i] = db.tab.Intern(seg)
		remap = remap || refs[i] != uint32(i)
		*db.born.Make(refs[i]) = *p.born.At(uint32(i))
	}
	var distinct, runBytes int64
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.run = p.runs[si]
		sh.run.born = &db.born
		if remap {
			sh.run.remap(refs)
		}
		sh.big = sh.run.bigSets()
		distinct += int64(len(sh.run.lo))
		runBytes += sh.run.bytes()
		sh.mu.Unlock()
	}
	var parHashes int64
	for _, rec := range p.pars {
		seg := p.table[rec.ref]
		ss := db.segShardFor(seg)
		ss.mu.Lock()
		row := db.addRow(refs[rec.ref])
		row.hashes, row.updated = rec.hashes, rec.updated
		if rec.posted != nil {
			ss.setPosted(row, rec.posted)
		}
		db.setThreshold(ss, row, rec.threshold)
		ss.mu.Unlock()
		parHashes += int64(len(rec.hashes))
	}
	db.distinct.Store(distinct)
	db.runBytes.Store(runBytes)
	db.postings.Store(int64(p.total))
	db.parHashes.Store(parHashes)
	db.RecomputeDigests()
	db.advance()
}

// reset empties every stripe, the DBpar rows and all counters (the clock
// is left for the caller to set; the segment table, which other owners may
// share, is left alone). It must not run concurrently with other
// operations on the same DB.
func (db *DB) reset() {
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.head, sh.over = headTable{}, nil
		sh.run = run{}
		sh.big = nil
		sh.headPostings = 0
		sh.dead = 0
		sh.digest = 0
		sh.mu.Unlock()
	}
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.Lock()
		ss.own, ss.apart = nil, nil
		ss.digest = 0
		ss.mu.Unlock()
	}
	db.slots.Reset()
	db.rows.Reset()
	db.born.Reset()
	db.rowMu.Lock()
	db.free, db.nrows = nil, 0
	db.rowMu.Unlock()
	db.segments.Store(0)
	db.distinct.Store(0)
	db.runBytes.Store(0)
	db.headRows.Store(0)
	db.postings.Store(0)
	db.headN.Store(0)
	db.deadN.Store(0)
	db.parHashes.Store(0)
}
