package index

import (
	"fmt"
	"sort"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// SegmentRecord is the serialisable form of one DBpar entry.
type SegmentRecord struct {
	Seg       segment.ID `json:"seg"`
	Hashes    []uint32   `json:"hashes"`
	Threshold float64    `json:"threshold"`
	Updated   uint64     `json:"updated"`
}

// PostingRecord is the serialisable form of one DBhash association.
type PostingRecord struct {
	Hash uint32     `json:"hash"`
	Seg  segment.ID `json:"seg"`
	Seq  uint64     `json:"seq"`
}

// ExportData is a complete serialisable snapshot of a DB, preserving the
// first-seen ordering that the authoritative-fingerprint logic depends on.
type ExportData struct {
	DefaultThreshold float64         `json:"defaultThreshold"`
	Clock            uint64          `json:"clock"`
	Segments         []SegmentRecord `json:"segments"`
	Postings         []PostingRecord `json:"postings"`
}

// Export snapshots the DB. Segments are sorted by ID and postings by
// (seq, hash) so exports are deterministic. The snapshot is taken stripe
// by stripe; concurrent mutations land either before or after the shard
// they touch is visited.
func (db *DB) Export() ExportData {
	data := ExportData{DefaultThreshold: db.defaultThreshold}
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		for seg, entry := range ss.par {
			rec := SegmentRecord{
				Seg:       seg,
				Threshold: entry.threshold,
				Updated:   entry.updated,
			}
			if entry.fp != nil {
				// Copy: Hashes() exposes the fingerprint's internal
				// storage and ExportData is handed to callers.
				rec.Hashes = append([]uint32(nil), entry.fp.Hashes()...)
			}
			data.Segments = append(data.Segments, rec)
		}
		ss.mu.RUnlock()
	}
	sort.Slice(data.Segments, func(i, j int) bool { return data.Segments[i].Seg < data.Segments[j].Seg })
	view := idsView{tab: &db.segtab}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		for h, b := range sh.head {
			for _, p := range b.postings {
				data.Postings = append(data.Postings, PostingRecord{Hash: h, Seg: p.Seg, Seq: p.Seq})
			}
		}
		for g := range sh.run.hashes {
			s, e := sh.run.bounds(g)
			for i := s; i < e; i++ {
				if sh.run.segs[i] == tombstoneRef {
					continue
				}
				data.Postings = append(data.Postings, PostingRecord{
					Hash: sh.run.hashes[g],
					Seg:  view.id(sh.run.segs[i]),
					Seq:  sh.run.seqs[i],
				})
			}
		}
		sh.mu.RUnlock()
	}
	// Read the clock after the scan: a mutation that lands mid-export has
	// ticked it before inserting, so every exported seq is ≤ Clock and a
	// concurrent export always re-imports.
	data.Clock = db.clock.Load()
	sort.Slice(data.Postings, func(i, j int) bool {
		if data.Postings[i].Seq != data.Postings[j].Seq {
			return data.Postings[i].Seq < data.Postings[j].Seq
		}
		return data.Postings[i].Hash < data.Postings[j].Hash
	})
	return data
}

// Import replaces the DB's contents with a previously exported snapshot.
// It must not run concurrently with other operations on the same DB.
func (db *DB) Import(data ExportData) error {
	// Validate before mutating anything.
	for _, p := range data.Postings {
		if p.Seq > data.Clock {
			return fmt.Errorf("index: posting seq %d exceeds clock %d", p.Seq, data.Clock)
		}
	}
	for _, rec := range data.Segments {
		if rec.Updated > data.Clock {
			return fmt.Errorf("index: segment %s updated %d exceeds clock %d", rec.Seg, rec.Updated, data.Clock)
		}
	}

	db.reset()
	db.defaultThreshold = data.DefaultThreshold
	db.clock.Store(data.Clock)

	// Postings must be replayed in seq order to restore first-seen
	// semantics; Export writes them sorted, but do not trust external data.
	// Runs are empty after reset, so plain head-bucket inserts suffice;
	// compaction happens lazily once mutation resumes (or via Compact).
	postings := make([]PostingRecord, len(data.Postings))
	copy(postings, data.Postings)
	sort.Slice(postings, func(i, j int) bool { return postings[i].Seq < postings[j].Seq })
	for _, p := range postings {
		sh := &db.hashShards[db.hashShardIdx(p.Hash)]
		sh.mu.Lock()
		b := sh.head[p.Hash]
		if b == nil {
			b = &bucket{}
			sh.head[p.Hash] = b
			db.distinct.Add(1)
		}
		if b.insert(p.Seg, p.Seq) {
			db.postings.Add(1)
			db.headN.Add(1)
			sh.headPostings++
		}
		sh.mu.Unlock()
	}
	for _, rec := range data.Segments {
		ss := db.segShardFor(rec.Seg)
		ss.mu.Lock()
		prev, ok := ss.par[rec.Seg]
		if !ok {
			db.segments.Add(1)
		} else if prev.fp != nil {
			db.parHashes.Add(int64(-prev.fp.Len()))
		}
		db.parHashes.Add(int64(len(rec.Hashes)))
		ss.par[rec.Seg] = &parEntry{
			fp:        fingerprint.FromHashes(rec.Hashes),
			threshold: rec.Threshold,
			updated:   rec.Updated,
		}
		ss.mu.Unlock()
	}
	db.RecomputeDigests()
	return nil
}

// reset empties every stripe, the ref table and all counters (the clock is
// left for the caller to set). It must not run concurrently with other
// operations on the same DB.
func (db *DB) reset() {
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.head = make(map[uint32]*bucket)
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
