// Package index implements the two data structures behind BrowserFlow's
// text disclosure algorithm (§4.3, Algorithm 1):
//
//   - DBhash: associations of fingerprint hashes to the segments that were
//     observed to contain them, with first-seen timestamps, and
//   - DBpar: the last fingerprint calculated for each segment, plus its
//     disclosure threshold and the decision Algorithm 1 made for it.
//
// First-seen timestamps are logical sequence numbers from an internal
// monotonic clock so that behaviour is deterministic; ordering semantics are
// identical to the paper's wall-clock timestamps. The oldest holder of a
// hash is the *authoritative* source for it, which is how the paper avoids
// misreporting disclosure when documents overlap (Figure 7).
//
// # Concurrency layout
//
// To serve per-keystroke observations from many concurrent devices, the DB
// is lock-striped instead of guarded by one RWMutex:
//
//   - DBhash is split into N hash shards keyed by the *top* bits of the
//     hash. Fingerprint hash slices are sorted, so a whole fingerprint's
//     hashes fall into consecutive runs per shard and each update/query
//     acquires every shard lock at most once.
//   - DBpar is guarded by N segment stripes keyed by segment.Key of the
//     segment ID, so observations of different segments never contend.
//   - The logical clock and the Stats counters (segments, distinct hashes,
//     postings) are atomics maintained incrementally by every mutation, so
//     Stats() never scans DBhash.
//
// Segments are refs of a segment.Table the DB may share with other owners
// of per-segment state. DBpar is a dense column of rows in the DB's own
// insert order, reached through a 4-byte slot per ref.
//
// # Storage layout
//
// Each hash shard is a small LSM tree: recent postings live in a mutable
// head and the bulk in one compacted run of columnar arrays (see run.go).
// Both tiers store segments as interned refs and both follow one rule: a
// hash's oldest holder sits inline beside the hash — in the head as a
// 12-byte row of an open-addressed table (see head.go), in the run as
// bit-packed columns — and only a hash with further holders has an entry
// in a side structure (the head's overflow buckets, the run's spill
// columns). Inline merges migrate the head into the run once it outgrows
// the merge policy and drop the head table whole, so steady-state memory
// stays near the compacted figure while the hot insert path writes one
// row. Verdict and oldest-holder semantics are identical in every merge
// state; only the physical layout changes.
//
// Lock ordering: a segment-stripe lock may be held while hash-shard locks
// are acquired (one at a time), never the reverse, and never two locks of
// the same kind at once. The segment table, the row allocator and a
// column's page creation are leaf locks acquirable under any other. A
// segment's stripe guards its slot, its DBpar row and its entries in the
// stripe's side maps; per-segment mutations (Update, RemoveSegment) hold it
// for their whole critical section so that a segment's DBpar entry and its
// DBhash postings cannot interleave with a concurrent removal of the same
// segment. Walks over every DBpar row (AppendSnapshot, ExpireBefore,
// Segments, Decisions, RecomputeDigests) hold every stripe, taken in
// ascending order while no shard is held; AppendSnapshot then takes every
// shard ascending for a consistent cut. Both are safe precisely because
// writers obey the rules above.
package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// Stats summarises the size of a DB, used by the scalability experiments
// (Figure 13). All fields are maintained incrementally, so reading them
// never scans the index.
type Stats struct {
	// Segments is the number of tracked segments.
	Segments int

	// DistinctHashes is the number of distinct fingerprint hashes in DBhash.
	DistinctHashes int

	// Postings is the total number of live (hash, segment) associations.
	Postings int

	// HeadPostings is how many postings still live in the mutable heads
	// (the rest are compacted); Tombstones counts dead run entries not yet
	// dropped by a merge.
	HeadPostings int
	Tombstones   int

	// ApproxBytes is an in-memory footprint estimate: the bytes of the run
	// columns and head tables, counted as they change, plus per-item costs
	// of fingerprint sets and segments. It tracks growth trends, not exact
	// heap use.
	ApproxBytes int64
}

// DefaultShards is the lock-stripe count used by New. 64 stripes keep
// shard collision probability low for typical device concurrency while the
// fixed overhead (a mutex and the slice headers of an empty run per stripe;
// a head table is made at a stripe's first insert) stays negligible.
const DefaultShards = 64

// maxShards bounds the configurable stripe count.
const maxShards = 256

// posting is one (segment, first-seen time) association of a hash, the
// segment as its interned ref.
type posting struct {
	ref uint32
	seq uint64
}

// hashShard is one DBhash stripe: a mutable head plus one compacted run.
type hashShard struct {
	mu sync.RWMutex

	// head holds each head hash's oldest head holder (see head.go); over
	// the later head holders of the hashes whose row is tagged moreBit.
	// Both are empty until the first insert after a merge.
	head headTable
	over map[uint32]*bucket
	run  run

	// big holds shard-level membership sets for run groups with many live
	// postings (see bigGroupMin), keyed by hash → set of live segment refs.
	big map[uint32]map[uint32]struct{}

	headPostings int // live postings in head
	dead         int // tombstoned postings in run

	// digest is the XOR-fold of postingCode over the shard's live
	// postings, maintained incrementally (see digest.go).
	digest uint64
}

// segShard is one segment stripe: the lock over its segments' slots and
// DBpar rows, and, by ref, the three rare facts kept beside the rows —
// thresholds other than the default (rowOwnThreshold), posted unions
// that diverged from the fingerprint (rowApart) and the sources of a
// disclosing decision (rowSources); nil until first needed.
type segShard struct {
	mu    sync.RWMutex
	own   map[uint32]float64
	apart map[uint32][]uint32
	srcs  map[uint32][]Source

	// digest is the XOR-fold of parCode over the stripe's entries,
	// maintained incrementally (see digest.go).
	digest uint64
}

// parRow is one DBpar entry (a freed row is zero).
//
// The posted union is every hash the entry's segment holds a posting of
// since the entry was made (h ∈ posted ⟺ the posting exists), so Update
// pays shard probes only for hashes never posted and RemoveSegment takes
// every posting an earlier version left. It is hashes while the two are
// equal, and otherwise lives in the stripe's apart map.
//
// rowDecided marks that the row holds the decision made for hashes (see
// Decision); a decision that discloses nothing is that flag alone. The
// row's parCode share of the stripe digest is not kept: a change
// recomputes it to XOR it out.
type parRow struct {
	hashes     []uint32 // the current fingerprint's, ascending, immutable
	updated    uint64
	ref, flags uint32
}

// parRow flags.
const (
	rowLive         = 1 << iota // the row holds an entry
	rowOwnThreshold             // the threshold is in the stripe's own map
	rowApart                    // the posted union is in the stripe's apart map, not hashes
	rowDecided                  // the decision made for hashes is held
	rowSources                  // that decision's sources are in the stripe's srcs map
)

// Source is one origin segment from which significant information is being
// disclosed. The JSON tags are the node↔router wire form (a resolved
// observe's and a routed check's source list).
type Source struct {
	// Seg is the origin segment (paragraph or document).
	Seg segment.ID `json:"seg"`

	// Disclosure is D(src, target) in [0, 1] using the authoritative
	// fingerprint of the source.
	Disclosure float64 `json:"disclosure"`

	// Threshold is the origin's disclosure threshold that was met.
	Threshold float64 `json:"threshold"`
}

// Decision is what Algorithm 1 decided for one fingerprint of a segment:
// the origins it discloses, nil when none. Update keeps it on the
// segment's DBpar row beside that fingerprint, so it goes whenever the
// row does or the fingerprint changes.
type Decision struct {
	Sources []Source
}

// DB is one fingerprint database (the paper instantiates one per tracking
// granularity). It is safe for concurrent use.
type DB struct {
	defaultThreshold float64

	// hashShift maps a hash to its shard: h >> hashShift. Using the top
	// bits means a sorted fingerprint addresses shards in contiguous runs.
	hashShift uint
	segMask   uint32

	hashShards []hashShard
	segShards  []segShard

	// tab interns the segment IDs that postings and DBpar rows refer to.
	tab *segment.Table

	// born is, by ref, the stamp of the ref's first posting, which run
	// stamp codes are against (see run.go); 0 until then. Update writes it
	// under the segment's stripe before inserting any posting, and it then
	// stays until reset, so a shard-lock holder reads it without a lock, as
	// it reads tab.ID: it was written before any posting that names the ref.
	born segment.Column[uint64]

	// slots maps a ref to 1 + its row in rows, which are dense in this DB's
	// insert order; freed row numbers wait in free, nrows is the high-water
	// mark. rowMu (a leaf) guards free and nrows, a stripe its slots and rows.
	slots segment.Column[uint32]
	rows  segment.Column[parRow]
	rowMu sync.Mutex
	free  []uint32
	nrows uint32

	// clock is the logical time source; increments on every observation.
	clock atomic.Uint64

	// Incremental Stats counters.
	segments  atomic.Int64
	distinct  atomic.Int64
	postings  atomic.Int64
	headN     atomic.Int64 // live postings still in mutable heads
	deadN     atomic.Int64 // tombstones awaiting merge
	parHashes atomic.Int64 // total fingerprint hashes across DBpar
	runBytes  atomic.Int64 // bytes of every run's columns, moved by merges and restores
	headRows  atomic.Int64 // rows of every head table, moved as one grows or is dropped

	// compactMin tunes the inline merge policy; see SetCompactThreshold.
	compactMin atomic.Int64
}

// New returns an empty DB on the segment table tab (nil: a table of its
// own) whose segments default to the given disclosure threshold (the
// paper's default is Tpar = 0.5, §6.1), striped across DefaultShards locks.
func New(tab *segment.Table, defaultThreshold float64) *DB {
	return NewWithShards(tab, defaultThreshold, DefaultShards)
}

// NewWithShards is New with an explicit stripe count. n is clamped to
// [1, 256] and rounded up to a power of two; n = 1 yields the single-lock
// layout of the original implementation.
func NewWithShards(tab *segment.Table, defaultThreshold float64, n int) *DB {
	if tab == nil {
		tab = &segment.Table{}
	}
	n = normalizeShards(n)
	db := &DB{
		defaultThreshold: defaultThreshold,
		hashShards:       make([]hashShard, n),
		segShards:        make([]segShard, n),
		segMask:          uint32(n - 1),
		tab:              tab,
	}
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	db.hashShift = 32 - bits
	return db
}

func normalizeShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the lock-stripe count.
func (db *DB) NumShards() int { return len(db.hashShards) }

func (db *DB) hashShardIdx(h uint32) int {
	return int(h >> db.hashShift) // shift of 32 (one shard) yields 0
}

func (db *DB) segShardFor(seg segment.ID) *segShard {
	return &db.segShards[segment.Key(seg)&db.segMask]
}

// rowOf returns ref's DBpar row, nil without an entry. Caller holds the
// segment's stripe, as for every helper below that takes a row.
func (db *DB) rowOf(ref uint32) *parRow {
	if slot := db.slots.At(ref); slot != nil && *slot != 0 {
		return db.rows.At(*slot - 1)
	}
	return nil
}

// lookupRow is rowOf for an ID, interning nothing; ref is valid with a row.
func (db *DB) lookupRow(seg segment.ID) (ref uint32, row *parRow) {
	if ref, ok := db.tab.Lookup(seg); ok {
		return ref, db.rowOf(ref)
	}
	return 0, nil
}

// addRow gives ref, which has no entry, a fresh one: default threshold, no
// fingerprint, nothing posted.
func (db *DB) addRow(ref uint32) *parRow {
	db.rowMu.Lock()
	i := db.nrows
	if n := len(db.free); n > 0 {
		i, db.free = db.free[n-1], db.free[:n-1]
	} else {
		db.nrows++
	}
	db.rowMu.Unlock()
	*db.slots.Make(ref) = i + 1
	row := db.rows.Make(i)
	*row = parRow{ref: ref, flags: rowLive}
	db.segments.Add(1)
	return row
}

// dropRow deletes the entry in row, which ss guards.
func (db *DB) dropRow(ss *segShard, row *parRow) {
	slot := db.slots.At(row.ref)
	i := *slot - 1
	*slot = 0
	ss.digest ^= db.rowCode(ss, segDigestKey(string(db.tab.ID(row.ref))), row)
	delete(ss.own, row.ref)
	delete(ss.apart, row.ref)
	delete(ss.srcs, row.ref)
	db.parHashes.Add(int64(-len(row.hashes)))
	*row = parRow{}
	db.segments.Add(-1)
	db.rowMu.Lock()
	db.free = append(db.free, i)
	db.rowMu.Unlock()
}

func (db *DB) thresholdOf(ss *segShard, row *parRow) float64 {
	if row.flags&rowOwnThreshold != 0 {
		return ss.own[row.ref]
	}
	return db.defaultThreshold
}

// setThreshold keeps t beside row only when it differs from the default.
func (db *DB) setThreshold(ss *segShard, row *parRow, t float64) {
	delete(ss.own, row.ref)
	row.flags &^= rowOwnThreshold
	if math.Float64bits(t) != math.Float64bits(db.defaultThreshold) {
		if ss.own == nil {
			ss.own = make(map[uint32]float64)
		}
		ss.own[row.ref] = t
		row.flags |= rowOwnThreshold
	}
}

// postedOf returns row's posted union (ascending, not to be modified).
func (ss *segShard) postedOf(row *parRow) []uint32 {
	if row.flags&rowApart != 0 {
		return ss.apart[row.ref]
	}
	return row.hashes
}

// setPosted records posted (ascending) as row's posted union. A union
// equal to hashes is hashes.
func (ss *segShard) setPosted(row *parRow, posted []uint32) {
	delete(ss.apart, row.ref)
	row.flags &^= rowApart
	if !slices.Equal(posted, row.hashes) {
		if ss.apart == nil {
			ss.apart = make(map[uint32][]uint32)
		}
		ss.apart[row.ref] = posted
		row.flags |= rowApart
	}
}

// setDecision keeps d on row, made for its hashes; nil leaves it undecided.
func (ss *segShard) setDecision(row *parRow, d *Decision) {
	delete(ss.srcs, row.ref)
	row.flags &^= rowDecided | rowSources
	switch {
	case d == nil:
		return
	case len(d.Sources) > 0:
		if ss.srcs == nil {
			ss.srcs = make(map[uint32][]Source)
		}
		ss.srcs[row.ref] = d.Sources
		row.flags |= rowSources
	}
	row.flags |= rowDecided
}

// rowCode is row's parCode share of its stripe's digest, segKey its
// segment's digest key. A change XORs it out before and in after.
func (db *DB) rowCode(ss *segShard, segKey uint64, row *parRow) uint64 {
	return parCode(segKey, db.thresholdOf(ss, row), row.updated, row.hashes)
}

// lockStripes takes every segment stripe in ascending order, for writing
// or for reading, and returns their release. Caller holds no DB lock.
func (db *DB) lockStripes(write bool) (unlock func()) {
	locks := make([]sync.Locker, len(db.segShards))
	for si := range db.segShards {
		if locks[si] = db.segShards[si].mu.RLocker(); write {
			locks[si] = &db.segShards[si].mu
		}
		locks[si].Lock()
	}
	return func() {
		for _, l := range locks {
			l.Unlock()
		}
	}
}

// eachRow calls fn for every DBpar entry. Caller holds every stripe.
func (db *DB) eachRow(fn func(row *parRow)) {
	db.rowMu.Lock()
	n := db.nrows
	db.rowMu.Unlock()
	for i := uint32(0); i < n; i++ {
		if row := db.rows.At(i); row.flags&rowLive != 0 {
			fn(row)
		}
	}
}

// DefaultThreshold returns the threshold assigned to segments that have not
// set their own.
func (db *DB) DefaultThreshold() float64 { return db.defaultThreshold }

// Update stores fp as the latest fingerprint for seg and records first-seen
// postings for any hash not previously associated with seg. It returns the
// logical time of the update.
//
// Re-observations are diffed against the segment's posted-hash union
// (see parRow): a hash the segment has posted before already has a
// first-seen posting that is never refreshed, so only hashes the segment
// has *never* posted pay a bucket probe and a shard lock. Per-edit index
// cost is therefore proportional to the novel content of the edit — an
// edit that oscillates within previously seen text touches no hash shard
// at all — the §4.3 "incremental fashion" on the index side.
//
// d is the decision made for fp, which the row keeps until the next Update
// or its removal (nil: none, and a decision held is dropped); Update
// retains d.Sources, which the caller must not modify afterwards. The
// fingerprint and its decision land under one stripe write, so Decision
// never answers for a fingerprint the row does not hold.
//
// An Update whose hash set is identical to the segment's current
// fingerprint changes nothing else: it neither ticks the logical clock
// nor refreshes the recency stamp. This matches the decided fast path (a
// hit never reaches Update at all), so the index's evolution is a
// deterministic function of the observation stream — WAL replay after a
// crash reconstructs it byte-for-byte even though no decision survives
// the restart.
func (db *DB) Update(seg segment.ID, fp *fingerprint.Fingerprint, d *Decision) uint64 {
	hs := fp.Hashes()
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ref := db.tab.Intern(seg)
	row := db.rowOf(ref)
	if row != nil && slices.Equal(row.hashes, hs) {
		ss.setDecision(row, d)
		return row.updated
	}
	now := db.clock.Add(1)
	segKey := segDigestKey(string(seg))
	if row == nil {
		row = db.addRow(ref)
	} else {
		ss.digest ^= db.rowCode(ss, segKey, row)
	}
	if born := db.born.Make(ref); *born == 0 {
		*born = now
	}
	db.parHashes.Add(int64(len(hs) - len(row.hashes)))
	// Insert postings while still holding the segment stripe so that a
	// concurrent RemoveSegment(seg) cannot interleave between the DBpar
	// write and the DBhash writes (which would leak postings).
	w := postingWriter{ref: ref, segKey: segKey, seq: now}
	posted := ss.postedOf(row)
	switch {
	case len(posted) == 0:
		db.insertPostings(w, hs)
		posted = hs
	case countMissing(hs, posted) > 0:
		posted = db.insertNewPostings(w, hs, posted)
	}
	row.hashes, row.updated = hs, now
	ss.setPosted(row, posted)
	ss.setDecision(row, d)
	ss.digest ^= db.rowCode(ss, segKey, row)
	return now
}

// Decision returns the sources of the decision seg's row holds, an owned
// copy (nil when it discloses nothing), if the row is decided and its
// fingerprint is exactly hs (ascending). Anything else is a miss: no row,
// no decision, or a decision made for another fingerprint.
func (db *DB) Decision(seg segment.ID, hs []uint32) (sources []Source, ok bool) {
	ss := db.segShardFor(seg)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	_, row := db.lookupRow(seg)
	if row == nil || row.flags&rowDecided == 0 || !slices.Equal(row.hashes, hs) {
		return nil, false
	}
	if row.flags&rowSources != 0 {
		sources = slices.Clone(ss.srcs[row.ref])
	}
	return sources, true
}

// Decisions counts the rows holding a decision, and those whose decision
// has sources (the stripes' srcs entries).
func (db *DB) Decisions() (decided, sourced int) {
	defer db.lockStripes(false)()
	db.eachRow(func(row *parRow) {
		if row.flags&rowDecided != 0 {
			decided++
		}
		if row.flags&rowSources != 0 {
			sourced++
		}
	})
	return decided, sourced
}

// countMissing returns |hs \ posted| for two ascending slices — a pure
// merge walk with no locks, the O(n) fast path that lets an Update whose
// hashes were all posted before skip DBhash entirely.
func countMissing(hs, posted []uint32) int {
	k, j := 0, 0
	for _, h := range hs {
		for j < len(posted) && posted[j] < h {
			j++
		}
		if j >= len(posted) || posted[j] != h {
			k++
		}
	}
	return k
}

// postingWriter carries what every posting of one Update shares: the
// segment's ref, its digest key and the stamp.
type postingWriter struct {
	ref    uint32
	segKey uint64
	seq    uint64
}

// holdsLocked reports whether ref holds a live posting of h in either
// tier. Caller holds sh.mu at least for reading.
func (sh *hashShard) holdsLocked(h, ref uint32) bool {
	if i := sh.head.find(h); i >= 0 && sh.headHas(h, i, ref) {
		return true
	}
	if g := sh.run.find(h); g >= 0 {
		inRun, _ := sh.runHasSeg(h, g, ref)
		return inRun
	}
	return false
}

// shardInsertLocked records w's posting for h unless it already exists in
// the shard's head or run. Caller holds sh.mu for writing.
func (db *DB) shardInsertLocked(sh *hashShard, h uint32, w postingWriter) {
	i := sh.head.find(h)
	if i >= 0 && sh.headHas(h, i, w.ref) {
		return
	}
	runLive := false
	if g := sh.run.find(h); g >= 0 {
		var inRun bool
		if inRun, runLive = sh.runHasSeg(h, g, w.ref); inRun {
			return
		}
	}
	if i < 0 && !runLive {
		db.distinct.Add(1)
	}
	rows := len(sh.head.rows)
	sh.headInsert(h, i, w.ref, w.seq)
	db.headRows.Add(int64(len(sh.head.rows) - rows))
	db.postings.Add(1)
	db.headN.Add(1)
	sh.headPostings++
	sh.digest ^= postingCode(h, w.segKey, w.seq)
}

// insertPostings records w's first-seen postings for hs (ascending),
// locking each hash shard exactly once per contiguous run.
func (db *DB) insertPostings(w postingWriter, hs []uint32) {
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.Lock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			db.shardInsertLocked(sh, hs[j], w)
		}
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
		i = j
	}
}

// insertNewPostings records w's postings for the hashes of hs (ascending)
// that are absent from posted (ascending) and returns the merged union.
// Hashes present in posted already have first-seen postings, which are
// never refreshed, so skipping them is behaviour-identical while avoiding
// their bucket probes and shard locks. New hashes arrive in ascending
// order, so each hash shard is still locked at most once per contiguous
// run.
func (db *DB) insertNewPostings(w postingWriter, hs, posted []uint32) []uint32 {
	union := make([]uint32, 0, len(posted)+len(hs))
	var (
		sh  *hashShard
		cur = -1
		j   = 0
	)
	for _, h := range hs {
		for j < len(posted) && posted[j] < h {
			union = append(union, posted[j])
			j++
		}
		if j < len(posted) && posted[j] == h {
			union = append(union, h)
			j++
			continue // already posted by an earlier update
		}
		union = append(union, h)
		if si := db.hashShardIdx(h); si != cur {
			if sh != nil {
				db.maybeCompactLocked(sh)
				sh.mu.Unlock()
			}
			sh = &db.hashShards[si]
			sh.mu.Lock()
			cur = si
		}
		db.shardInsertLocked(sh, h, w)
	}
	if sh != nil {
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
	}
	return append(union, posted[j:]...)
}

// removePostings drops the postings of seg, whose ref is ref, for hs
// (ascending): head postings are deleted in place, run postings are
// tombstoned for the next merge.
func (db *DB) removePostings(ref uint32, seg segment.ID, hs []uint32) {
	segKey := segDigestKey(string(seg))
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.Lock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			h := hs[j]
			g := sh.run.find(h)
			seq, removed := sh.headRemove(h, ref)
			if removed {
				db.headN.Add(-1)
				sh.headPostings--
			} else if g >= 0 {
				if seq, removed = sh.tombstone(h, g, ref); removed {
					db.deadN.Add(1)
				}
			}
			if !removed {
				continue
			}
			db.postings.Add(-1)
			sh.digest ^= postingCode(h, segKey, seq)
			if sh.head.find(h) < 0 && (g < 0 || sh.run.first(g) == tombstoneRef) {
				db.distinct.Add(-1)
			}
		}
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
		i = j
	}
}

// SetThreshold overrides the disclosure threshold of seg (creating the
// entry if needed), modelling per-paragraph thresholds set by authors
// (§4.2).
func (db *DB) SetThreshold(seg segment.ID, t float64) {
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ref := db.tab.Intern(seg)
	segKey := segDigestKey(string(seg))
	row := db.rowOf(ref)
	if row == nil {
		row = db.addRow(ref)
	} else {
		ss.digest ^= db.rowCode(ss, segKey, row)
	}
	db.setThreshold(ss, row, t)
	ss.digest ^= db.rowCode(ss, segKey, row)
}

// Threshold returns seg's disclosure threshold, or the default if seg is
// unknown.
func (db *DB) Threshold(seg segment.ID) float64 {
	_, threshold, _ := db.Origin(seg)
	return threshold
}

// Fingerprint returns the latest fingerprint stored for seg.
func (db *DB) Fingerprint(seg segment.ID) (*fingerprint.Fingerprint, bool) {
	hashes, _, ok := db.Origin(seg)
	if !ok {
		return nil, false
	}
	return fingerprint.FromSortedHashes(hashes), true
}

// Origin returns the hashes of seg's latest fingerprint (ascending, not to
// be modified) and its threshold in one stripe acquisition — the
// candidate-evaluation read path of Algorithm 1. An unknown seg reports the
// default threshold.
func (db *DB) Origin(seg segment.ID) (hashes []uint32, threshold float64, ok bool) {
	_, hashes, threshold, ok = db.origin(seg)
	return hashes, threshold, ok
}

// origin is Origin plus seg's ref, valid when ok.
func (db *DB) origin(seg segment.ID) (ref uint32, hashes []uint32, threshold float64, ok bool) {
	ss := db.segShardFor(seg)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	ref, row := db.lookupRow(seg)
	if row == nil {
		return 0, nil, db.defaultThreshold, false
	}
	return ref, row.hashes, db.thresholdOf(ss, row), true
}

// OldestHolder returns the segment first observed with hash h — the
// authoritative source for h.
func (db *DB) OldestHolder(h uint32) (segment.ID, bool) {
	sh := &db.hashShards[db.hashShardIdx(h)]
	sh.mu.RLock()
	ref, _, ok := db.oldestLocked(sh, h, false)
	sh.mu.RUnlock()
	if !ok {
		return "", false
	}
	return db.tab.ID(ref), true
}

// SetClockFloor raises the logical clock to at least floor (it never moves
// the clock backwards). Partition nodes call this with the router's
// Lamport stamp before applying a routed write, so first-observation
// sequence numbers across independent partitions order the same way the
// single shared clock of one node would.
func (db *DB) SetClockFloor(floor uint64) {
	for {
		cur := db.clock.Load()
		if cur >= floor {
			return
		}
		if db.clock.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// OldestRef names the authoritative (oldest) holder of the Idx'th query
// hash together with the logical time of its first observation. The Seq
// is what lets a router compare authority claims across partitions: each
// partition resolves its local oldest holder, and the partition-spanning
// oldest is simply the reply with the smallest Seq. The JSON tags are the
// node↔router wire form (a /v1/part/query reply's "oldest" list).
type OldestRef struct {
	Idx int        `json:"i"`
	Seg segment.ID `json:"seg"`
	Seq uint64     `json:"seq"`
}

// AppendOldestRefs appends an OldestRef for every hash in hs (ascending,
// as returned by Fingerprint.Hashes) that has at least one holder, and
// returns the extended slice. Like AppendOldestHolders it locks each hash
// shard at most once and reuses caller capacity; unlike it, each entry
// carries the hash's index and the holder's first-observation sequence so
// cross-partition authority can be merged without a second round trip.
func (db *DB) AppendOldestRefs(hs []uint32, out []OldestRef) []OldestRef {
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if ref, seq, ok := db.oldestLocked(sh, hs[j], true); ok {
				out = append(out, OldestRef{Idx: j, Seg: db.tab.ID(ref), Seq: seq})
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return out
}

// AppendOldestHolders appends the oldest holder of every hash in hs
// (ascending, as returned by Fingerprint.Hashes) to out and returns the
// extended slice. Hashes with no holder contribute nothing; duplicates are
// not removed. Each hash shard is locked at most once, which is what makes
// the candidate-discovery loop of Algorithm 1 cheap under sharding, and
// caller-provided capacity in out is reused without reallocation.
func (db *DB) AppendOldestHolders(hs []uint32, out []segment.ID) []segment.ID {
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if ref, _, ok := db.oldestLocked(sh, hs[j], false); ok {
				out = append(out, db.tab.ID(ref))
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return out
}

// AppendHolders appends every segment associated with h, oldest first, to
// out and returns the extended slice — the capacity-reusing form of
// Holders for batch callers.
func (db *DB) AppendHolders(h uint32, out []segment.ID) []segment.ID {
	sh := &db.hashShards[db.hashShardIdx(h)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it := sh.postingsOf(h, sh.run.find(h), sh.head.find(h))
	for ref, _, ok := it.next(); ok; ref, _, ok = it.next() {
		out = append(out, db.tab.ID(ref))
	}
	return out
}

// Holders returns every segment associated with h, oldest first.
func (db *DB) Holders(h uint32) []segment.ID {
	return db.AppendHolders(h, nil)
}

// AuthoritativeCount returns |Fauthoritative(seg)|: how many of seg's
// fingerprint hashes have seg as their oldest holder.
func (db *DB) AuthoritativeCount(seg segment.ID) int {
	ref, hs, _, ok := db.origin(seg)
	if !ok {
		return 0
	}
	n := 0
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if oldest, _, ok := db.oldestLocked(sh, hs[j], false); ok && oldest == ref {
				n++
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return n
}

// AuthoritativeOverlap returns |Fauthoritative(src) ∩ target| — the core
// quantity of the adjusted disclosure metrics of §4.3 — together with
// |F(src)|. It returns (0, 0) if src has no stored fingerprint.
//
// Both hash sets are sorted, so the intersection is a single linear merge;
// oldest-holder checks for the common hashes acquire each hash shard at
// most once and the whole call allocates nothing.
func (db *DB) AuthoritativeOverlap(src segment.ID, target *fingerprint.Fingerprint) (overlap, srcLen int) {
	ref, a, _, ok := db.origin(src)
	if !ok {
		return 0, 0
	}
	srcLen = len(a)
	b := target.Hashes()
	var (
		sh       *hashShard
		curShard = -1
	)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			h := a[i]
			if si := db.hashShardIdx(h); si != curShard {
				if sh != nil {
					sh.mu.RUnlock()
				}
				sh = &db.hashShards[si]
				sh.mu.RLock()
				curShard = si
			}
			if oldest, _, ok := db.oldestLocked(sh, h, false); ok && oldest == ref {
				overlap++
			}
			i++
			j++
		}
	}
	if sh != nil {
		sh.mu.RUnlock()
	}
	return overlap, srcLen
}

// RemoveSegment deletes seg's fingerprint, its decision and all its
// postings, those of its earlier versions too. Subsequent oldest-holder
// queries may promote younger segments to authoritative.
func (db *DB) RemoveSegment(seg segment.ID) {
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	ref, row := db.lookupRow(seg)
	if row == nil {
		ss.mu.Unlock()
		return
	}
	db.removePostings(ref, seg, ss.postedOf(row))
	db.dropRow(ss, row)
	ss.mu.Unlock()
}

// ExpireBefore removes postings whose first observation is older than the
// given logical time, and drops segments whose last update is older (their
// decisions with them). This implements the periodic removal of old
// fingerprints recommended in §4.4. It returns the number of postings
// removed.
//
// The pass over a shard is a merge that leaves the expired postings out, so
// expiry both frees the postings and reclaims the tombstone space at once;
// a shard with nothing that old (and no tombstones) is left as it is.
func (db *DB) ExpireBefore(seq uint64) int {
	removed := 0
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		if sh.dead > 0 || sh.expiresLocked(seq) {
			expired, emptied := db.compactShardLocked(sh, seq)
			// Under the shard lock, like every other counter move: a snapshot
			// cut between two shards of this pass must find counters that
			// match the postings it walks.
			db.postings.Add(int64(-expired))
			db.distinct.Add(int64(-emptied))
			removed += expired
		}
		sh.mu.Unlock()
	}

	unlock := db.lockStripes(true)
	db.eachRow(func(row *parRow) {
		ss := db.segShardFor(db.tab.ID(row.ref))
		if row.updated < seq {
			db.dropRow(ss, row)
		} else if removed > 0 {
			// Expired postings may belong to surviving segments: keep the
			// part of the union whose postings survived.
			ss.setPosted(row, db.survivingPosted(row.ref, ss.postedOf(row)))
		}
	})
	unlock()
	return removed
}

// survivingPosted returns the hashes of posted (ascending) that ref still
// holds a posting of, probing each once and taking each hash shard once
// per contiguous run of them. Caller holds ref's stripe and no shard.
func (db *DB) survivingPosted(ref uint32, posted []uint32) []uint32 {
	var kept []uint32
	for i := 0; i < len(posted); {
		si := db.hashShardIdx(posted[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(posted) && db.hashShardIdx(posted[j]) == si; j++ {
			if sh.holdsLocked(posted[j], ref) {
				kept = append(kept, posted[j])
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	if len(kept) == len(posted) {
		return posted
	}
	return kept
}

// Now returns the current logical time.
func (db *DB) Now() uint64 { return db.clock.Load() }

// Segments returns the IDs of all tracked segments, sorted.
func (db *DB) Segments() []segment.ID {
	unlock := db.lockStripes(false)
	out := make([]segment.ID, 0, db.segments.Load())
	db.eachRow(func(row *parRow) { out = append(out, db.tab.ID(row.ref)) })
	unlock()
	slices.Sort(out)
	return out
}

// Stats returns current size statistics from the incrementally maintained
// counters; no shard is locked and no structure is scanned.
func (db *DB) Stats() Stats {
	s := Stats{
		Segments:       int(db.segments.Load()),
		DistinctHashes: int(db.distinct.Load()),
		Postings:       int(db.postings.Load()),
		HeadPostings:   int(db.headN.Load()),
		Tombstones:     int(db.deadN.Load()),
	}
	// Runs and head tables are counted as allocated: a run's columns are
	// exact-size from birth to its shard's next merge, and a head row is
	// 12 bytes (hash, tagged ref, stamp offset) at whatever fill the table
	// is at (60–75 %; the few hashes with several head holders add an
	// overflow bucket, not modelled). DBpar holds each hash once, in the
	// fingerprint (4 B — the posted union aliases it); a segment costs
	// ≈ 74 B: its 40-byte DBpar row (its decision included: a flag, and a
	// side-map entry only for the rare decision with sources), 4-byte slot
	// and 8-byte born stamp, and its segment table entry — a 16-byte ID
	// header and a 4-byte index slot at 60–75 % fill, ≈ 6 B — shared with
	// the table's other owners.
	// TestApproxBytesTracksHeap pins the sum to measured heap growth.
	s.ApproxBytes = db.runBytes.Load() + db.headRows.Load()*12 +
		db.parHashes.Load()*4 +
		int64(s.Segments)*74
	return s
}
