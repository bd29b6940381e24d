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

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"github.com/lsds/browserflow/internal/wire"
)

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
// shard), the breakdown served by /v1/repl/digest so a diverged replica
// can be localised to a stripe.
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
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		// XOR is order-free, so each tier's inline column and side
		// structure fold on their own, with no per-hash merge.
		var d uint64
		fold := func(h, ref uint32, seq uint64) {
			d ^= postingCode(h, segDigestKey(string(db.tab.ID(ref))), seq)
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
		seg := db.tab.ID(row.ref)
		ss := db.segShardFor(seg)
		ss.digest ^= db.rowCode(ss, segDigestKey(string(seg)), row)
	})
}

// Digest wire codec: the compact form replicas attach to stream rounds
// and /v1/repl/digest serves. Fixed-width little-endian framing behind a
// magic, a version byte and a trailing CRC32C, so a corrupt or truncated
// frame decodes to an error, never to a plausible digest.

// digestMagic opens an encoded digest frame.
const digestMagic = "BFDIGST1"

// digestCodecVersion is the current frame layout version.
const digestCodecVersion = 1

var digestCRCTable = crc32.MakeTable(crc32.Castagnoli)

// AppendEncode appends the digest's wire frame to buf.
func (d Digest) AppendEncode(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, digestMagic...)
	buf = append(buf, digestCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, d.Clock)
	buf = binary.LittleEndian.AppendUint64(buf, d.Postings)
	buf = binary.LittleEndian.AppendUint64(buf, d.Pars)
	buf = binary.LittleEndian.AppendUint64(buf, d.Combined)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], digestCRCTable))
}

// EncodedDigestLen is the exact wire size of one digest frame.
const EncodedDigestLen = len(digestMagic) + 1 + 4*8 + 4

// DecodeDigest parses one digest frame, rejecting bad magic, unknown
// versions, length mismatches and CRC failures with a *wire.Error.
func DecodeDigest(data []byte) (Digest, error) {
	var d Digest
	if len(data) != EncodedDigestLen {
		return d, &wire.Error{Offset: len(data), Reason: "digest frame length mismatch"}
	}
	if string(data[:len(digestMagic)]) != digestMagic {
		return d, &wire.Error{Offset: 0, Reason: "bad digest magic"}
	}
	if data[len(digestMagic)] != digestCodecVersion {
		return d, &wire.Error{Offset: len(digestMagic), Reason: "unsupported digest codec version"}
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, digestCRCTable); got != want {
		return d, &wire.Error{Offset: len(data) - 4, Reason: "digest CRC mismatch"}
	}
	off := len(digestMagic) + 1
	d.Clock = binary.LittleEndian.Uint64(data[off:])
	d.Postings = binary.LittleEndian.Uint64(data[off+8:])
	d.Pars = binary.LittleEndian.Uint64(data[off+16:])
	d.Combined = binary.LittleEndian.Uint64(data[off+24:])
	return d, nil
}
