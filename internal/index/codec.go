package index

// Binary snapshot codec for one DB: the payload of the docs/pars sections
// of the BFLOWSNB state image (see internal/store; DESIGN.md §9 has the
// byte accounting). Every fact has one home: a fingerprint is the transpose
// of the posting stream, one flag per posting; a stamp is its distance
// below the holder's DBpar updated, zero unless the segment was edited
// after it first posted the hash; a threshold is stored where it differs
// from the default; sorted segment IDs are front-coded.
//
//	u8      codec version (2)
//	u64     clock, u64 defaultThreshold (IEEE 754 bits), little endian
//	uvarint segment-table length
//	  per entry, ascending by ID: wire.AppendFrontCoded
//	uvarint DBpar entry count
//	  per entry, ascending by table ref:
//	    uvarint refs skipped since the previous entry << 1 | own threshold
//	    u64 threshold bits, only with the own-threshold bit
//	    uvarint updated, uvarint fingerprint length
//	uvarint distinct hash count, uvarint total posting count
//	  per hash, ascending: uvarint delta from the previous hash, then its
//	  postings, oldest first:
//	    uvarint ref << 3 | postStamped | postStale | postMore
//	    varint holder's base − stamp, only with postStamped
//	uvarint unposted count
//	  per fingerprint hash without a live posting, ascending by (ref, hash):
//	    uvarint ref, uvarint hash
//
// A holder's base is its DBpar updated, or the clock for a segment without
// an entry (images written while RemoveSegment took only a segment's last
// version hold such postings); the distance is signed, so any (ref, stamp)
// pair round-trips. A posting without postStale adds its hash to the
// holder's fingerprint; hashes ascend, so each fingerprint fills in order. The unposted list is what
// ExpireBefore can leave — a posting expired, its segment did not — and
// the decoder checks every fingerprint reaches its declared length.
//
// The encoding is a pure function of the DB's logical contents, so the
// same state encodes to the same bytes regardless of shard count or merge
// history and a replica can persist a primary's snapshot verbatim. Decoding
// builds the compacted runs directly, one linear varint scan, and the
// restored DB starts with nothing in the mutable heads. The decoder reads
// through a wire.Reader, so a malformed payload is a *wire.Error with the
// payload offset where decoding failed.
//
// Codec version 1 — what container version 2 images hold — is still read,
// by branches of the same decoder: plain length-prefixed IDs; per DBpar
// entry uvarint ref, u64 threshold, uvarint updated, uvarint hash count and
// the delta-uvarint fingerprint itself; per hash a uvarint group length,
// per posting uvarint ref and uvarint stamp delta; no unposted list.

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

const (
	snapshotCodecVersion = 2
	legacyCodecVersion   = 1 // read, never written
)

// Flags in the low bits of a posting's ref varint. All clear is the common
// posting: the hash's only holder, still in its fingerprint, not edited
// since.
const (
	postMore     = 1 << iota // later holders of the same hash follow
	postStale                // the hash has left the holder's fingerprint, or the holder has no DBpar entry
	postStamped              // the stamp is not the holder's base: the distance follows
	postFlagBits = 3
)

// AppendSnapshot appends the DB's binary snapshot to buf and returns the
// extended slice. The DB takes its own consistent cut: every segment
// stripe and then every hash shard is read-locked for the whole encode, so
// the image is the DB's exact state at one instant and the call is safe
// beside any other operation — observes, Compact, ExpireBefore — which
// simply wait. The order (ascending, all stripes before any shard) cannot
// deadlock under the package's lock ordering: no writer waits for a stripe
// while holding a shard, and none holds two locks of one kind.
func (db *DB) AppendSnapshot(buf []byte) []byte {
	defer db.lockStripes(false)()
	for si := range db.hashShards {
		db.hashShards[si].mu.RLock()
	}
	defer func() {
		for si := range db.hashShards {
			db.hashShards[si].mu.RUnlock()
		}
	}()

	// Pass A: collect the referenced segments — DBpar entries and live
	// postings, all interned before these locks were taken, so below n.
	n := db.tab.Len()
	used := make([]bool, n)
	var rows []*parRow
	db.eachRow(func(row *parRow) {
		rows = append(rows, row)
		used[row.ref] = true
	})
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		for _, r := range sh.head.rows {
			if r.ref != emptyRow {
				used[r.ref&^moreBit] = true
			}
		}
		for _, b := range sh.over {
			for _, p := range b.postings {
				used[p.ref] = true
			}
		}
		for g := range sh.run.lo {
			if r := sh.run.first(g); r != tombstoneRef {
				used[r&^moreBit] = true
			}
		}
		for k := range sh.run.moreHashes {
			if r := sh.run.moreRef(k); r != tombstoneRef {
				used[r] = true
			}
		}
	}

	// The image's table is the universe sorted by ID; pos maps a ref to its
	// place in it.
	var table []uint32
	for r, u := range used {
		if u {
			table = append(table, uint32(r))
		}
	}
	slices.SortFunc(table, func(a, b uint32) int { return cmp.Compare(db.tab.ID(a), db.tab.ID(b)) })
	pos := make([]uint32, n)
	for i, r := range table {
		pos[r] = uint32(i)
	}

	// Header and segment table.
	clock := db.clock.Load()
	thrBits := math.Float64bits(db.defaultThreshold)
	buf = append(buf, snapshotCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, clock)
	buf = binary.LittleEndian.AppendUint64(buf, thrBits)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	prevSeg := ""
	for _, r := range table {
		seg := string(db.tab.ID(r))
		buf = wire.AppendFrontCoded(buf, prevSeg, seg)
		prevSeg = seg
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
	slices.SortFunc(rows, func(a, b *parRow) int { return cmp.Compare(pos[a.ref], pos[b.ref]) })
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	next := uint32(0)
	for _, row := range rows {
		ref := pos[row.ref]
		if row.flags&rowOwnThreshold == 0 {
			buf = binary.AppendUvarint(buf, uint64(ref-next)<<1)
		} else {
			buf = binary.AppendUvarint(buf, uint64(ref-next)<<1|1)
			ss := db.segShardFor(db.tab.ID(row.ref))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ss.own[row.ref]))
		}
		buf = binary.AppendUvarint(buf, row.updated)
		buf = binary.AppendUvarint(buf, uint64(len(row.hashes)))
		holders[ref] = holder{base: row.updated, fp: row.hashes}
		next = ref + 1
	}

	// Postings, globally ascending by hash: shard index is the hash's top
	// bits, so visiting shards in order yields global hash order; within a
	// shard, the sorted head keys merge with the run groups. Every mutation
	// moves the counters under the shard lock it holds, so under the cut
	// they equal what the walk below emits. Hashes ascend inside every
	// fingerprint too, so whether a posting's hash is in its holder's
	// fingerprint falls out of one cursor per holder, advanced as the stream
	// passes; the fingerprint hashes it steps over have no live posting.
	buf = binary.AppendUvarint(buf, uint64(db.distinct.Load()))
	buf = binary.AppendUvarint(buf, uint64(db.postings.Load()))
	var (
		prevHash uint32
		scratch  []posting
		unposted []uint64 // ref << 32 | hash
	)
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.walkHashesLocked(func(h uint32, g, i int) {
			scratch = sh.appendPostingsLocked(h, g, i, scratch[:0])
			if len(scratch) == 0 {
				return // fully tombstoned group
			}
			buf = binary.AppendUvarint(buf, uint64(h-prevHash))
			prevHash = h
			for i, p := range scratch {
				ref := pos[p.ref]
				hd := &holders[ref]
				v := uint64(ref) << postFlagBits
				if i < len(scratch)-1 {
					v |= postMore
				}
				for len(hd.fp) > 0 && hd.fp[0] < h {
					unposted = append(unposted, uint64(ref)<<32|uint64(hd.fp[0]))
					hd.fp = hd.fp[1:]
				}
				if len(hd.fp) > 0 && hd.fp[0] == h {
					hd.fp = hd.fp[1:]
				} else {
					v |= postStale
				}
				if p.seq == hd.base {
					buf = binary.AppendUvarint(buf, v)
				} else {
					buf = binary.AppendUvarint(buf, v|postStamped)
					buf = binary.AppendVarint(buf, int64(hd.base-p.seq))
				}
			}
		})
	}
	for ref := range holders {
		for _, h := range holders[ref].fp {
			unposted = append(unposted, uint64(ref)<<32|uint64(h))
		}
	}
	slices.Sort(unposted)
	buf = binary.AppendUvarint(buf, uint64(len(unposted)))
	for _, u := range unposted {
		buf = binary.AppendUvarint(buf, u>>32)
		buf = binary.AppendUvarint(buf, u&math.MaxUint32)
	}
	return buf
}

// snapParRec is one decoded DBpar entry awaiting commit.
type snapParRec struct {
	ref       uint32
	threshold float64
	updated   uint64
	hashes    []uint32 // decode fills it up to its capacity, the declared length
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

// LoadSnapshot replaces the DB's contents with the decoded snapshot,
// building the compacted runs directly from the posting arrays. It must
// not run concurrently with other operations on the same DB. The payload
// is fully validated before the DB is touched, so on error the DB is left
// unchanged — never partially loaded.
func (db *DB) LoadSnapshot(data []byte) error {
	p, err := db.PrepareSnapshot(data)
	if err != nil {
		return err
	}
	db.CommitSnapshot(p)
	return nil
}

// PrepareSnapshot decodes and validates a snapshot payload against this
// DB's shard layout without touching its state. The result must be passed
// to CommitSnapshot on the same DB (and is invalidated by it). Nothing in
// the prepared state aliases data, which may be a memory mapping.
func (db *DB) PrepareSnapshot(data []byte) (*PreparedSnapshot, error) {
	p := &PreparedSnapshot{db: db}
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p, nil
}

// decode does PrepareSnapshot's work: it fills p from data, sharded for
// p.db. v1 marks the places where the legacy codec's layout differs.
func (p *PreparedSnapshot) decode(data []byte) error {
	db := p.db
	d := wire.NewReader(data)
	version := d.Byte("codec version")
	if version != snapshotCodecVersion && version != legacyCodecVersion {
		return &wire.Error{Reason: "empty payload or unsupported codec version"}
	}
	v1 := version == legacyCodecVersion
	clock, thrBits := d.U64("clock"), d.U64("default threshold")

	nSegs := uint64(d.Count("segment table length", 1))
	if nSegs >= uint64(moreBit-1) {
		return d.Fail("segment table too large for 31-bit refs")
	}
	table := make([]segment.ID, nSegs)
	var id []byte
	for i := range table {
		if v1 {
			id = append(id[:0], d.String("segment ID")...)
		} else {
			id = d.FrontCoded(id)
		}
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
	parOf := make([]int32, nSegs) // table ref → its entry in pars, -1 without one
	for i := range parOf {
		parOf[i] = -1
	}
	next, fpTotal := uint64(0), uint64(0)
	for i := range pars {
		ref, ownThreshold := d.Uvarint("DBpar segment ref"), true
		if !v1 {
			ref, ownThreshold = next+ref>>1, ref&1 != 0
		}
		if ref >= nSegs || ref < next {
			return d.Fail("DBpar segment ref out of range or not ascending")
		}
		tb := thrBits
		if ownThreshold {
			tb = d.U64("DBpar threshold")
		}
		updated := d.Uvarint("DBpar updated")
		if updated > clock {
			return d.Fail("DBpar updated exceeds clock")
		}
		// Every fingerprint hash takes at least a byte further on, as a
		// delta here (v1) or as a posting or unposted entry, so the payload
		// bounds what the declared lengths may add up to.
		nh := d.Uvarint("DBpar hash count")
		if fpTotal += nh; d.Err() != nil || nh > uint64(len(data)) || fpTotal > uint64(len(data)) {
			return d.Fail("DBpar hash count exceeds payload")
		}
		hashes := make([]uint32, 0, nh)
		for prev := uint64(0); v1 && uint64(len(hashes)) < nh; {
			dv := d.Uvarint("DBpar hash delta")
			if d.Err() != nil || len(hashes) > 0 && dv == 0 {
				return d.Fail("DBpar hashes not strictly ascending")
			}
			if dv > math.MaxUint32-prev {
				return d.Fail("DBpar hash overflows 32 bits")
			}
			prev += dv
			hashes = append(hashes, uint32(prev))
		}
		pars[i] = snapParRec{ref: uint32(ref), threshold: math.Float64frombits(tb), updated: updated, hashes: hashes}
		parOf[ref] = int32(i)
		next = ref + 1
	}

	distinct, total := uint64(d.Count("distinct hash count", 1)), uint64(d.Count("total posting count", 1))
	for ref := range table {
		base := clock
		if pi := parOf[ref]; pi >= 0 {
			base = pars[pi].updated
		}
		*p.born.Make(uint32(ref)) = max(base, 1)
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
	if v1 {
		// The fingerprints are complete already: every posting is stale,
		// and the union is built from the postings alone.
		for i := range pars {
			pars[i].posted = []uint32{}
		}
	}
	runs := make([]run, len(db.hashShards))
	for i := range runs {
		runs[i] = newRun(&p.born, 0, 0, 0, 0)
	}
	cur := &runs[0]
	prevHash, seenPostings := uint64(0), uint64(0)
	for seenHashes := uint64(0); seenHashes < distinct; seenHashes++ {
		dv := d.Uvarint("posting hash delta")
		if d.Err() != nil || seenHashes > 0 && dv == 0 {
			return d.Fail("posting hashes not strictly ascending")
		}
		if dv > math.MaxUint32-prevHash {
			return d.Fail("posting hash overflows 32 bits")
		}
		prevHash += dv
		h := uint32(prevHash)
		if r := &runs[db.hashShardIdx(h)]; r != cur {
			cur.finish()
			cur = r
		}
		groupLen := uint64(1)
		if v1 {
			if groupLen = d.Uvarint("posting group length"); groupLen == 0 {
				return d.Fail("empty posting group")
			}
		}
		prevSeq := uint64(0)
		for more := true; more; seenPostings++ {
			if seenPostings == total {
				return d.Fail("posting groups exceed declared total")
			}
			v := d.Uvarint("posting segment ref")
			ref, stale := v, true // v1 keeps the fingerprints in the DBpar entries
			if !v1 {
				ref, stale = v>>postFlagBits, v&postStale != 0
			}
			if ref >= nSegs {
				return d.Fail("posting segment ref out of range")
			}
			pi, seq := parOf[ref], clock
			if v1 {
				seq = prevSeq + d.Uvarint("posting seq delta")
				groupLen--
				more = groupLen > 0
			} else {
				if pi >= 0 {
					seq = pars[pi].updated
				}
				if v&postStamped != 0 { // zigzag, as binary.AppendVarint wrote it
					u := d.Uvarint("posting stamp distance")
					seq -= u>>1 ^ -(u & 1)
				}
				more = v&postMore != 0
			}
			if d.Err() != nil || seq > clock {
				return d.Fail("posting seq exceeds clock")
			}
			if seq < prevSeq {
				return d.Fail("posting seqs not ascending")
			}
			prevSeq = seq
			if pi >= 0 {
				rec := &pars[pi]
				if !stale {
					hs := rec.hashes
					if n := len(hs); n == cap(hs) || n > 0 && hs[n-1] >= h {
						return d.Fail("fingerprint hashes repeat or exceed the declared length")
					}
					rec.hashes = append(hs, h)
				}
				if stale && rec.posted == nil {
					// The first posting off the fingerprint: the union
					// parts from hashes, which holds every posting so far.
					rec.posted = append([]uint32{}, rec.hashes...)
				}
				if rec.posted != nil {
					rec.posted = append(rec.posted, h)
				}
			} else if !stale {
				return d.Fail("fingerprint hash of a segment without a DBpar entry")
			}
			cur.add(h, uint32(ref), seq)
		}
	}
	cur.finish()
	if seenPostings != total {
		return d.Fail("posting total mismatch")
	}

	if !v1 {
		// Fingerprint hashes without a live posting, sorted in behind the
		// posted ones; then every fingerprint must have its declared length.
		var prevRef, prevHash uint64
		for i, n := uint64(0), d.Uvarint("unposted count"); i < n; i++ {
			ref, h := d.Uvarint("unposted segment ref"), d.Uvarint("unposted hash")
			if d.Err() != nil || ref >= nSegs || parOf[ref] < 0 {
				return d.Fail("unposted hash of a segment without a DBpar entry")
			}
			if h > math.MaxUint32 || i > 0 && (ref < prevRef || ref == prevRef && h <= prevHash) {
				return d.Fail("unposted hashes not strictly ascending 32-bit values")
			}
			prevRef, prevHash = ref, h
			rec := &pars[parOf[ref]]
			if rec.posted == nil {
				// The posting stream is over, so hashes holds the union.
				rec.posted = append([]uint32{}, rec.hashes...)
			}
			if len(rec.hashes) == cap(rec.hashes) {
				return d.Fail("fingerprint hashes exceed the declared length")
			}
			rec.hashes = append(rec.hashes, uint32(h))
			if len(rec.hashes) < cap(rec.hashes) {
				continue
			}
			// Complete, and only now: the posting stream is over.
			if slices.Sort(rec.hashes); len(slices.Compact(rec.hashes)) < len(rec.hashes) {
				return d.Fail("unposted hash repeats a posted one")
			}
		}
		for i := range pars {
			if len(pars[i].hashes) != cap(pars[i].hashes) {
				return d.Fail("fingerprint shorter than its declared length")
			}
		}
	}
	if err := d.Done("snapshot payload"); err != nil {
		return err
	}

	p.clock, p.thrBits, p.table, p.pars, p.runs, p.total = clock, thrBits, table, pars, runs, total
	return nil
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
