package index

// Binary snapshot codec for one DB: the payload of the docs/pars sections
// of the BFLOWSNB checkpoint format (see internal/store). The encoding is
// columnar and delta-varint compressed:
//
//	u8      codec version (1)
//	u64     clock (little endian)
//	u64     defaultThreshold (IEEE 754 bits, little endian)
//	uvarint segment-table length
//	  per entry: uvarint byte length + ID bytes, sorted ascending by ID
//	uvarint DBpar entry count
//	  per entry (ascending by segment ref):
//	    uvarint ref, u64 threshold bits, uvarint updated,
//	    uvarint hash count, delta-uvarint ascending hashes
//	uvarint distinct hash count
//	uvarint total posting count
//	  per hash (ascending): uvarint delta from previous hash,
//	    uvarint group length,
//	    per posting (ascending seq): uvarint ref, uvarint seq delta
//
// The encoding is a pure function of the DB's logical contents — segment
// table sorted by ID, hashes ascending, postings seq-ascending — so the
// same state encodes to the same bytes regardless of shard count or merge
// history, and a replica can persist a primary's snapshot verbatim.
//
// Decoding rebuilds the compacted runs directly from the arrays (no
// per-posting map inserts), so recovery is one linear varint scan and the
// restored DB starts fully compacted, with nothing in the mutable heads.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

const snapshotCodecVersion = 1

// CodecError reports a malformed binary index snapshot, with the byte
// offset (relative to the index payload) where decoding failed.
type CodecError struct {
	Offset int
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("index: corrupt snapshot payload at offset %d: %s", e.Offset, e.Reason)
}

// AppendSnapshot appends the DB's binary snapshot to buf and returns the
// extended slice. The DB takes its own consistent cut: every segment
// stripe and then every hash shard is read-locked for the whole encode, so
// the image is the DB's exact state at one instant and the call is safe
// beside any other operation — observes, Compact, ExpireBefore — which
// simply wait. The order (ascending, all stripes before any shard) cannot
// deadlock under the package's lock ordering: no writer waits for a stripe
// while holding a shard, and none holds two locks of one kind.
func (db *DB) AppendSnapshot(buf []byte) []byte {
	for si := range db.segShards {
		db.segShards[si].mu.RLock()
	}
	for si := range db.hashShards {
		db.hashShards[si].mu.RLock()
	}
	defer func() {
		for si := range db.hashShards {
			db.hashShards[si].mu.RUnlock()
		}
		for si := range db.segShards {
			db.segShards[si].mu.RUnlock()
		}
	}()

	// Pass A: collect the referenced segment universe — DBpar entries (by
	// ID: a segment that only ever had its threshold set is not interned)
	// and the refs of every live posting in either tier.
	ids := db.segtab.snapshot()
	refUsed := make([]bool, len(ids))
	universe := make(map[segment.ID]struct{})

	type parRec struct {
		seg       segment.ID
		threshold float64
		updated   uint64
		hashes    []uint32 // immutable fingerprint storage
	}
	var pars []parRec
	for si := range db.segShards {
		for seg, entry := range db.segShards[si].par {
			rec := parRec{seg: seg, threshold: entry.threshold, updated: entry.updated}
			if entry.fp != nil {
				rec.hashes = entry.fp.Hashes()
			}
			pars = append(pars, rec)
			universe[seg] = struct{}{}
		}
	}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		for _, slot := range sh.head {
			refUsed[slot.ref&^moreBit] = true
		}
		for _, b := range sh.over {
			for _, p := range b.postings {
				refUsed[p.ref] = true
			}
		}
		for _, r := range sh.run.segs {
			if r != tombstoneRef {
				refUsed[r&^moreBit] = true
			}
		}
		for _, r := range sh.run.moreSegs {
			if r != tombstoneRef {
				refUsed[r] = true
			}
		}
	}
	for r, used := range refUsed {
		if used {
			universe[ids[r]] = struct{}{}
		}
	}

	table := make([]segment.ID, 0, len(universe))
	for seg := range universe {
		table = append(table, seg)
	}
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	newRef := make(map[segment.ID]uint32, len(table))
	for i, seg := range table {
		newRef[seg] = uint32(i)
	}

	// Header.
	buf = append(buf, snapshotCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, db.clock.Load())
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(db.defaultThreshold))
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, seg := range table {
		buf = binary.AppendUvarint(buf, uint64(len(seg)))
		buf = append(buf, seg...)
	}

	// DBpar entries, ascending by (new) ref.
	sort.Slice(pars, func(i, j int) bool { return pars[i].seg < pars[j].seg })
	buf = binary.AppendUvarint(buf, uint64(len(pars)))
	for _, rec := range pars {
		buf = binary.AppendUvarint(buf, uint64(newRef[rec.seg]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.threshold))
		buf = binary.AppendUvarint(buf, rec.updated)
		buf = binary.AppendUvarint(buf, uint64(len(rec.hashes)))
		prev := uint32(0)
		for i, h := range rec.hashes {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(h))
			} else {
				buf = binary.AppendUvarint(buf, uint64(h-prev))
			}
			prev = h
		}
	}

	// Postings, globally ascending by hash: shard index is the hash's top
	// bits, so visiting shards in order yields global hash order; within a
	// shard, the sorted head keys merge with the run groups. Every mutation
	// moves the counters under the shard lock it holds, so under the cut
	// they equal what the walk below emits.
	buf = binary.AppendUvarint(buf, uint64(db.distinct.Load()))
	buf = binary.AppendUvarint(buf, uint64(db.postings.Load()))
	remap := make([]uint32, len(ids)) // live ref → table position
	for r, used := range refUsed {
		if used {
			remap[r] = newRef[ids[r]]
		}
	}
	var (
		prevHash uint32
		first    = true
		scratch  []posting
	)
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.walkHashesLocked(func(h uint32, g int, slot headSlot, inHead bool) {
			scratch = sh.appendPostingsLocked(h, g, slot, inHead, scratch[:0])
			if len(scratch) == 0 {
				return // fully tombstoned group
			}
			if first {
				buf = binary.AppendUvarint(buf, uint64(h))
				first = false
			} else {
				buf = binary.AppendUvarint(buf, uint64(h-prevHash))
			}
			prevHash = h
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			prevSeq := uint64(0)
			for _, p := range scratch {
				buf = binary.AppendUvarint(buf, uint64(remap[p.ref]))
				buf = binary.AppendUvarint(buf, p.seq-prevSeq)
				prevSeq = p.seq
			}
		})
	}
	return buf
}

// snapDecoder is a bounds-checked varint reader over the snapshot payload.
type snapDecoder struct {
	data []byte
	off  int
}

func (d *snapDecoder) fail(reason string) error {
	return &CodecError{Offset: d.off, Reason: reason}
}

func (d *snapDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail("truncated or overlong varint: " + what)
	}
	d.off += n
	return v, nil
}

func (d *snapDecoder) u64(what string) (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, d.fail("truncated u64: " + what)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

// snapParRec is one decoded DBpar entry awaiting commit.
type snapParRec struct {
	ref       uint32
	threshold float64
	updated   uint64
	hashes    []uint32
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

// decode does PrepareSnapshot's work: it fills p from data, sharded for p.db.
func (p *PreparedSnapshot) decode(data []byte) error {
	db := p.db
	d := &snapDecoder{data: data}
	if len(data) < 1 {
		return d.fail("empty payload")
	}
	if data[0] != snapshotCodecVersion {
		return &CodecError{Offset: 0, Reason: fmt.Sprintf("unsupported codec version %d", data[0])}
	}
	d.off = 1
	clock, err := d.u64("clock")
	if err != nil {
		return err
	}
	thrBits, err := d.u64("default threshold")
	if err != nil {
		return err
	}

	nSegs, err := d.uvarint("segment table length")
	if err != nil {
		return err
	}
	if nSegs > uint64(len(data)) { // each entry needs ≥1 byte
		return d.fail("segment table length exceeds payload")
	}
	table := make([]segment.ID, nSegs)
	for i := range table {
		n, err := d.uvarint("segment ID length")
		if err != nil {
			return err
		}
		if n > uint64(len(data)-d.off) {
			return d.fail("segment ID exceeds payload")
		}
		table[i] = segment.ID(data[d.off : d.off+int(n)])
		d.off += int(n)
		if i > 0 && table[i] <= table[i-1] {
			return d.fail("segment table not strictly ascending")
		}
	}

	nPar, err := d.uvarint("DBpar entry count")
	if err != nil {
		return err
	}
	if nPar > nSegs {
		return d.fail("more DBpar entries than table segments")
	}
	pars := make([]snapParRec, nPar)
	for i := range pars {
		ref, err := d.uvarint("DBpar segment ref")
		if err != nil {
			return err
		}
		if ref >= nSegs {
			return d.fail("DBpar segment ref out of range")
		}
		if i > 0 && uint32(ref) <= pars[i-1].ref {
			return d.fail("DBpar entries not ascending by ref")
		}
		tb, err := d.u64("DBpar threshold")
		if err != nil {
			return err
		}
		updated, err := d.uvarint("DBpar updated")
		if err != nil {
			return err
		}
		if updated > clock {
			return d.fail("DBpar updated exceeds clock")
		}
		nh, err := d.uvarint("DBpar hash count")
		if err != nil {
			return err
		}
		if nh > uint64(len(data)-d.off) {
			return d.fail("DBpar hash count exceeds payload")
		}
		hashes := make([]uint32, nh)
		prev := uint64(0)
		for j := range hashes {
			dv, err := d.uvarint("DBpar hash delta")
			if err != nil {
				return err
			}
			var h uint64
			if j == 0 {
				h = dv
			} else {
				if dv == 0 {
					return d.fail("DBpar hashes not strictly ascending")
				}
				h = prev + dv
			}
			if h > math.MaxUint32 {
				return d.fail("DBpar hash overflows 32 bits")
			}
			hashes[j] = uint32(h)
			prev = h
		}
		pars[i] = snapParRec{ref: uint32(ref), threshold: math.Float64frombits(tb), updated: updated, hashes: hashes}
	}

	distinct, err := d.uvarint("distinct hash count")
	if err != nil {
		return err
	}
	total, err := d.uvarint("total posting count")
	if err != nil {
		return err
	}
	if distinct > uint64(len(data)) || total > uint64(len(data)) {
		return d.fail("posting counts exceed payload")
	}

	// Decode postings straight into run columns. Hashes ascend and the
	// shard is their top bits, so the shards fill one after the other; each
	// run grows by append and is trimmed when its shard is complete, so it
	// ends at its shard's real share — winnowing keeps the minimum hash of
	// each window, hashes crowd towards zero, and that share is anywhere
	// between nothing and a quarter of the database. The runs are swapped
	// in only at commit, so a decode error leaves no partial load.
	if nSegs >= uint64(moreBit-1) {
		return d.fail("segment table too large for 31-bit refs")
	}
	runs := make([]run, len(db.hashShards))
	cur := &runs[0]
	cur.base = clock
	prevHash := uint64(0)
	seenPostings := uint64(0)
	for seenHashes := uint64(0); seenHashes < distinct; seenHashes++ {
		dv, err := d.uvarint("posting hash delta")
		if err != nil {
			return err
		}
		if seenHashes > 0 && dv == 0 {
			return d.fail("posting hashes not strictly ascending")
		}
		h := prevHash + dv
		if h > math.MaxUint32 {
			return d.fail("posting hash overflows 32 bits")
		}
		prevHash = h
		groupLen, err := d.uvarint("posting group length")
		if err != nil {
			return err
		}
		if groupLen == 0 {
			return d.fail("empty posting group")
		}
		if groupLen > total-seenPostings {
			return d.fail("posting groups exceed declared total")
		}
		if r := &runs[db.hashShardIdx(uint32(h))]; r != cur {
			cur.clip()
			cur = r
			cur.base = clock
		}
		seq := uint64(0)
		for j := uint64(0); j < groupLen; j++ {
			ref, err := d.uvarint("posting segment ref")
			if err != nil {
				return err
			}
			if ref >= nSegs {
				return d.fail("posting segment ref out of range")
			}
			sd, err := d.uvarint("posting seq delta")
			if err != nil {
				return err
			}
			if seq += sd; seq > clock || seq < sd {
				return d.fail("posting seq exceeds clock")
			}
			cur.add(uint32(h), uint32(ref), seq)
		}
		seenPostings += groupLen
	}
	cur.clip()
	if seenPostings != total {
		return d.fail("posting total mismatch")
	}
	if d.off != len(data) {
		return d.fail("trailing bytes after snapshot payload")
	}

	p.clock = clock
	p.thrBits = thrBits
	p.table = table
	p.pars = pars
	p.runs = runs
	p.total = total
	return nil
}

// CommitSnapshot swaps a prepared snapshot's state into the DB that
// prepared it, replacing all previous contents. It must not run
// concurrently with other operations on the same DB, and p must not be
// reused afterwards (the DB takes ownership of its arrays).
func (db *DB) CommitSnapshot(p *PreparedSnapshot) {
	if p.db != db {
		panic("index: CommitSnapshot on a DB other than the one that prepared it")
	}
	db.reset()
	db.defaultThreshold = math.Float64frombits(p.thrBits)
	db.clock.Store(p.clock)
	db.segtab.mu.Lock()
	db.segtab.ids = p.table
	db.segtab.refs = make(map[segment.ID]uint32, len(p.table))
	for i, seg := range p.table {
		db.segtab.refs[seg] = uint32(i)
	}
	db.segtab.mu.Unlock()
	var distinct int64
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.run = p.runs[si]
		sh.run.buildSkip(db.shardBitsOf())
		sh.big = sh.run.bigSets(db.shardBitsOf())
		distinct += int64(len(sh.run.hashes))
		sh.mu.Unlock()
	}
	var parHashes int64
	for _, rec := range p.pars {
		seg := p.table[rec.ref]
		ss := db.segShardFor(seg)
		ss.mu.Lock()
		ss.par[seg] = &parEntry{
			fp:        fingerprint.FromSortedHashes(rec.hashes),
			threshold: rec.threshold,
			updated:   rec.updated,
		}
		ss.mu.Unlock()
		parHashes += int64(len(rec.hashes))
	}
	db.segments.Store(int64(len(p.pars)))
	db.distinct.Store(distinct)
	db.postings.Store(int64(p.total))
	db.parHashes.Store(parHashes)
	db.RecomputeDigests()
}

// reset empties every stripe, the ref table and all counters (the clock is
// left for the caller to set). It must not run concurrently with other
// operations on the same DB.
func (db *DB) reset() {
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.head, sh.over = nil, nil
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
		ss.par = make(map[segment.ID]*parEntry)
		ss.digest = 0
		ss.mu.Unlock()
	}
	db.segtab.reset()
	db.segments.Store(0)
	db.distinct.Store(0)
	db.postings.Store(0)
	db.headN.Store(0)
	db.deadN.Store(0)
	db.parHashes.Store(0)
}
