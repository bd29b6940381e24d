package index

// Incremental anti-entropy digests. Every hash shard maintains a 64-bit
// set-digest of its live postings and every segment stripe a set-digest of
// its DBpar entries, updated in O(1) at each mutation: a posting or entry
// contributes a mixed code to the shard digest by XOR, so insert and
// delete are the same operation and the digest of a set is independent of
// the order its elements arrived in. Two DBs holding the same logical
// contents — regardless of batching, coalescing, compaction state or
// shard count — produce the same combined digest, which is what lets a
// primary detect a replica whose index has silently diverged even though
// both report the same WAL position.
//
// Codes deliberately exclude physical state: head-vs-run placement,
// tombstones, interned refs, the posted-hash union cache and membership
// sets never enter a code. Compaction is digest-neutral by construction
// (it preserves every live (hash, seg, seq) triple exactly).

import "math"

// mix64 is the splitmix64 finalizer: a cheap bijective mixer with full
// avalanche, so XOR-combining codes of distinct items does not cancel
// structurally related entries.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// segDigestKey hashes a segment ID (FNV-1a 64) for digest codes. Codes
// are keyed by the ID string itself, never the interned ref, so head and
// run placements of the same posting produce the same code.
func segDigestKey(seg string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(seg); i++ {
		h ^= uint64(seg[i])
		h *= prime64
	}
	return h
}

// postingCode is the digest contribution of one live (hash, seg, seq)
// posting.
func postingCode(h uint32, segKey, seq uint64) uint64 {
	x := mix64(uint64(h) ^ 0x9e3779b97f4a7c15)
	x = mix64(x ^ segKey)
	return mix64(x ^ seq)
}

// parCode is the digest contribution of one DBpar entry: segment,
// threshold, recency stamp and the canonical sorted hash set of its
// fingerprint. The posted-hash union is a cache and is excluded.
func parCode(segKey uint64, threshold float64, updated uint64, hashes []uint32) uint64 {
	x := mix64(segKey ^ 0xd1b54a32d192ed03)
	x = mix64(x ^ math.Float64bits(threshold))
	x = mix64(x ^ updated)
	for _, h := range hashes {
		x = mix64(x ^ uint64(h))
	}
	return x
}

// Digest summarises a DB's logical contents. Postings and Pars are
// XOR-folds over the per-shard digests (shard-count invariant); Combined
// additionally binds the logical clock, so two DBs agree on Combined iff
// they agree on contents and clock.
type Digest struct {
	Clock    uint64 `json:"clock"`
	Postings uint64 `json:"postings"`
	Pars     uint64 `json:"pars"`
	Combined uint64 `json:"combined"`
}

// Digest folds the per-shard digests into the DB-level summary. Each
// shard is read under its lock; concurrent mutations land either before
// or after the shard they touch is visited, so a quiescent DB always
// reports a stable value.
func (db *DB) Digest() Digest {
	var d Digest
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		d.Postings ^= sh.digest
		sh.mu.RUnlock()
	}
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		d.Pars ^= ss.digest
		ss.mu.RUnlock()
	}
	d.Clock = db.clock.Load()
	d.Combined = mix64(d.Clock^0xa0761d6478bd642f) ^ mix64(d.Postings) ^ mix64(d.Pars^0xe7037ed1a0b428db)
	return d
}

// Fold binds an ordered sequence of DB digests into one 64-bit summary.
// Position is salted in, so two trackers agree on the fold iff they agree
// on every database's Combined digest in order — swapping the paragraph
// and document databases changes the fold.
func Fold(ds ...Digest) uint64 {
	x := uint64(0x2545f4914f6cdd1d)
	for i, d := range ds {
		x = mix64(x ^ d.Combined ^ uint64(i+1)*0x9e3779b97f4a7c15)
	}
	return x
}

// ShardDigests returns the per-shard posting and DBpar digests (index =
// shard): the stripe breakdown that the cross-version pins and the model
// rig compare, so a divergence is localised to a stripe.
func (db *DB) ShardDigests() (postings, pars []uint64) {
	postings = make([]uint64, len(db.hashShards))
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		postings[si] = sh.digest
		sh.mu.RUnlock()
	}
	pars = make([]uint64, len(db.segShards))
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		pars[si] = ss.digest
		ss.mu.RUnlock()
	}
	return postings, pars
}

// RecomputeDigests rebuilds every shard digest from the shard's contents.
// The bulk-load path (CommitSnapshot) calls it instead of threading codes
// through its build loops; tests use it to pin the incremental
// maintenance against the ground truth. It must not run concurrently
// with mutations (reads are fine).
func (db *DB) RecomputeDigests() {
	// Each segment's key is hashed once, not once per posting, and only
	// for the segments this DB holds: the table is shared, so keys fills in
	// as the walk meets a ref (a key that hashes to 0 is hashed again).
	keys := make([]uint64, db.tab.Len())
	key := func(ref uint32) uint64 {
		if keys[ref] == 0 {
			keys[ref] = segDigestKey(string(db.tab.ID(ref)))
		}
		return keys[ref]
	}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		// XOR is order-free, so each tier's inline column and side
		// structure fold on their own, with no per-hash merge.
		var d uint64
		fold := func(h, ref uint32, seq uint64) {
			d ^= postingCode(h, key(ref), seq)
		}
		r := &sh.run
		for c := (runCursor{r: r}); c.ok(); c.next() {
			if first := r.first(c.g); first != tombstoneRef {
				fold(c.hash(), first&^moreBit, r.firstSeq(c.g))
			}
		}
		for k, h := range r.moreHashes {
			if ref := r.moreRef(k); ref != tombstoneRef {
				fold(h, ref, r.moreSeq(k))
			}
		}
		for i, row := range sh.head.rows {
			if row.ref != emptyRow {
				fold(row.hash, row.ref&^moreBit, sh.head.seq(i))
			}
		}
		for h, b := range sh.over {
			for _, p := range b.postings {
				fold(h, p.ref, p.seq)
			}
		}
		sh.digest = d
		sh.mu.Unlock()
	}
	unlock := db.lockStripes(true)
	defer unlock()
	for si := range db.segShards {
		db.segShards[si].digest = 0
	}
	db.eachRow(func(row *parRow) {
		ss := db.segShardFor(db.tab.ID(row.ref))
		ss.digest ^= db.rowCode(ss, key(row.ref), row)
	})
}
