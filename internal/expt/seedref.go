package expt

// Seed reference engine: a faithful re-implementation of the repository's
// original Algorithm 1 hot path, kept as the correctness baseline. The
// disclosure package's golden-equivalence tests replay corpora through
// this engine and require byte-identical Reports from the sharded engine.
//
// The structure mirrors the seed exactly, including its cost model:
//
//   - one RWMutex per database acquired per *call* — the candidate loop
//     takes a fresh read lock for every hash's oldest-holder lookup and
//     three more per candidate evaluation (threshold, fingerprint,
//     authoritative overlap), where the sharded engine pins one stripe
//     for the whole observation;
//   - map-backed DBhash/DBpar with postings appended in clock order and a
//     linear membership scan per (hash, segment) insertion;
//   - the original map[uint32]struct{} fingerprint representation's
//     per-call Hashes() cost (fresh slice + reflection sort.Slice), see
//     seedHashes;
//   - a heap-allocated candidate slice per hash (candidatesFor);
//   - sort.Slice over the final source list; and
//   - a single tracker mutex guarding the decision cache.

import (
	"sort"
	"sync"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// seedHashes reproduces the seed fingerprint's Hashes() cost model. The
// original representation was a map[uint32]struct{}, so every Hashes()
// call materialised a fresh slice and ran sort.Slice (reflection-based
// swapper, one closure and one buffer allocation per call). The current
// fingerprint package returns its internal sorted slice for free; paying
// the copy+sort here keeps the seed baseline honest about what each
// observation used to allocate.
func seedHashes(fp *fingerprint.Fingerprint) []uint32 {
	shared := fp.Hashes()
	out := make([]uint32, 0, len(shared))
	out = append(out, shared...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type seedPosting struct {
	seg segment.ID
	seq uint64
}

type seedPar struct {
	fp        *fingerprint.Fingerprint
	threshold float64
	updated   uint64
}

// seedDB replicates the seed index.DB: one RWMutex for the whole database,
// locked and released on every call, with map-backed structures and linear
// membership scans.
type seedDB struct {
	mu               sync.RWMutex
	defaultThreshold float64
	hash             map[uint32][]seedPosting
	par              map[segment.ID]*seedPar
	clock            uint64
}

func newSeedDB(threshold float64) *seedDB {
	return &seedDB{
		defaultThreshold: threshold,
		hash:             make(map[uint32][]seedPosting),
		par:              make(map[segment.ID]*seedPar),
	}
}

func (db *seedDB) update(seg segment.ID, fp *fingerprint.Fingerprint) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock++
	now := db.clock
	entry, ok := db.par[seg]
	if !ok {
		entry = &seedPar{threshold: db.defaultThreshold}
		db.par[seg] = entry
	}
	entry.fp = fp
	entry.updated = now
	for _, h := range seedHashes(fp) {
		has := false
		for _, p := range db.hash[h] {
			if p.seg == seg {
				has = true
				break
			}
		}
		if !has {
			db.hash[h] = append(db.hash[h], seedPosting{seg: seg, seq: now})
		}
	}
}

// oldestHolder takes a read lock per call, exactly as the seed's
// DB.OldestHolder did — the candidate loop pays one acquisition per hash.
func (db *seedDB) oldestHolder(h uint32) (segment.ID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.oldestHolderLocked(h)
}

func (db *seedDB) oldestHolderLocked(h uint32) (segment.ID, bool) {
	postings := db.hash[h]
	if len(postings) == 0 {
		return "", false
	}
	return postings[0].seg, true
}

// holders returns every segment associated with h, oldest first (fresh
// slice, like the seed's DB.Holders).
func (db *seedDB) holders(h uint32) []segment.ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	postings := db.hash[h]
	out := make([]segment.ID, len(postings))
	for i, p := range postings {
		out[i] = p.seg
	}
	return out
}

func (db *seedDB) threshold(seg segment.ID) float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if entry, ok := db.par[seg]; ok {
		return entry.threshold
	}
	return db.defaultThreshold
}

func (db *seedDB) fingerprintOf(seg segment.ID) (*fingerprint.Fingerprint, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.par[seg]
	if !ok || entry.fp == nil {
		return nil, false
	}
	return entry.fp, true
}

func (db *seedDB) authoritativeOverlap(src segment.ID, target *fingerprint.Fingerprint) (overlap, srcLen int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.par[src]
	if !ok || entry.fp == nil {
		return 0, 0
	}
	srcLen = entry.fp.Len()
	for _, h := range seedHashes(entry.fp) {
		holder, ok := db.oldestHolderLocked(h)
		if !ok || holder != src {
			continue
		}
		if target.Contains(h) {
			overlap++
		}
	}
	return overlap, srcLen
}

// SeedTracker is the exported seed reference engine. The databases carry
// their own per-call RWMutex locking; the tracker mutex guards only the
// decision cache — exactly the contention profile the sharded engine
// replaces.
type SeedTracker struct {
	mu     sync.Mutex
	params disclosure.Params
	pars   *seedDB
	docs   *seedDB
	cache  map[segment.ID]seedCacheEntry
}

type seedCacheEntry struct {
	digest uint64
	report disclosure.Report
}

// NewSeedTracker builds a seed reference engine with the given parameters.
func NewSeedTracker(params disclosure.Params) *SeedTracker {
	return &SeedTracker{
		params: params,
		pars:   newSeedDB(params.Tpar),
		docs:   newSeedDB(params.Tdoc),
		cache:  make(map[segment.ID]seedCacheEntry),
	}
}

// Observe fingerprints text and records it, returning the seed-form
// disclosure report.
func (t *SeedTracker) Observe(seg segment.ID, text string, g segment.Granularity) (disclosure.Report, error) {
	fp, err := fingerprint.Compute(text, t.params.Fingerprint)
	if err != nil {
		return disclosure.Report{}, err
	}
	return t.ObserveFP(seg, fp, g), nil
}

// ObserveFP records a pre-computed fingerprint, reproducing the seed
// observe path: cache check under the tracker mutex, Algorithm 1 over
// per-call database locks, update, cache store.
func (t *SeedTracker) ObserveFP(seg segment.ID, fp *fingerprint.Fingerprint, g segment.Granularity) disclosure.Report {
	db := t.pars
	if g == segment.GranularityDocument {
		db = t.docs
	}
	digest := fp.Digest()
	if !t.params.DisableCache {
		t.mu.Lock()
		if entry, ok := t.cache[seg]; ok && entry.digest == digest {
			report := entry.report
			report.CacheHit = true
			t.mu.Unlock()
			return report
		}
		t.mu.Unlock()
	}
	sources := t.sources(fp, seg, db)
	db.update(seg, fp)
	report := disclosure.Report{
		Seg:            seg,
		Granularity:    g,
		FingerprintLen: fp.Len(),
		Sources:        sources,
	}
	if !t.params.DisableCache {
		t.mu.Lock()
		t.cache[seg] = seedCacheEntry{digest: digest, report: report}
		t.mu.Unlock()
	}
	return report
}

// candidatesFor returns the candidate origin segments for hash h as a
// fresh slice — the seed allocated this per hash.
func (t *SeedTracker) candidatesFor(h uint32, db *seedDB) []segment.ID {
	if t.params.DisableAuthoritative {
		return db.holders(h)
	}
	if holder, ok := db.oldestHolder(h); ok {
		return []segment.ID{holder}
	}
	return nil
}

func (t *SeedTracker) sources(fp *fingerprint.Fingerprint, self segment.ID, db *seedDB) []disclosure.Source {
	if fp.Empty() {
		return nil
	}
	checked := make(map[segment.ID]bool)
	var out []disclosure.Source
	for _, h := range seedHashes(fp) {
		for _, p := range t.candidatesFor(h, db) {
			if p == self || checked[p] {
				continue
			}
			checked[p] = true
			if src, ok := t.evaluate(fp, p, db); ok {
				out = append(out, src)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Disclosure != out[j].Disclosure {
			return out[i].Disclosure > out[j].Disclosure
		}
		return out[i].Seg < out[j].Seg
	})
	return out
}

// evaluate runs the per-candidate body of Algorithm 1 with the seed's
// call-per-lookup locking: threshold, fingerprint and authoritative
// overlap each take and release the database lock.
func (t *SeedTracker) evaluate(fp *fingerprint.Fingerprint, p segment.ID, db *seedDB) (disclosure.Source, bool) {
	threshold := db.threshold(p)
	origin, ok := db.fingerprintOf(p)
	if !ok || origin.Empty() {
		return disclosure.Source{}, false
	}
	if float64(origin.Len())*threshold > float64(fp.Len()) {
		return disclosure.Source{}, false
	}
	var overlap, originLen int
	if t.params.DisableAuthoritative {
		overlap = origin.IntersectCount(fp)
		originLen = origin.Len()
	} else {
		overlap, originLen = db.authoritativeOverlap(p, fp)
	}
	if originLen == 0 || overlap == 0 {
		return disclosure.Source{}, false
	}
	d := float64(overlap) / float64(originLen)
	if d < threshold {
		return disclosure.Source{}, false
	}
	return disclosure.Source{Seg: p, Disclosure: d, Threshold: threshold}, true
}
