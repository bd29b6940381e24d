package expt

// The reference is Algorithm 1 (§4.3) stated directly, the oracle the
// engine's golden tests hold its sources and metrics to. It differs from
// the engine in what the tests study and in nothing they compare: it has
// no decision cache, no locks, no striping and no compacted layout, and
// every observation re-runs Algorithm 1 against the current state.

import (
	"sort"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// Reference tracks observations at both granularities and reports, for
// each, the sources Algorithm 1 finds. It is not safe for concurrent use.
type Reference struct {
	params     disclosure.Params
	pars, docs *refDB
}

// refDB is one granularity's state: each segment's latest fingerprint F
// (DBpar) and, per hash, the segments that have held it in order of first
// observation (DBhash), so the first is its authoritative holder.
type refDB struct {
	threshold float64
	fps       map[segment.ID][]uint32
	holders   map[uint32][]segment.ID
}

// NewReference returns an empty reference under params. DisableCache
// means nothing to it: it has no cache.
func NewReference(params disclosure.Params) *Reference {
	return &Reference{
		params: params,
		pars:   &refDB{threshold: params.Tpar, fps: map[segment.ID][]uint32{}, holders: map[uint32][]segment.ID{}},
		docs:   &refDB{threshold: params.Tdoc, fps: map[segment.ID][]uint32{}, holders: map[uint32][]segment.ID{}},
	}
}

// Observe fingerprints text, reports the sources seg's new text discloses
// at granularity g, then records the text as seg's latest.
func (r *Reference) Observe(seg segment.ID, text string, g segment.Granularity) (disclosure.Report, error) {
	fp, err := fingerprint.Compute(text, r.params.Fingerprint)
	if err != nil {
		return disclosure.Report{}, err
	}
	db := r.pars
	if g == segment.GranularityDocument {
		db = r.docs
	}
	report := disclosure.Report{
		Seg:            seg,
		Granularity:    g,
		FingerprintLen: fp.Len(),
		Sources:        db.sources(fp.Hashes(), seg, !r.params.DisableAuthoritative),
	}
	db.record(seg, fp.Hashes())
	return report, nil
}

// sources is Algorithm 1 for the fingerprint f of seg: the candidates are
// the authoritative holders of f's hashes (every holder, with auth off),
// and a candidate P other than seg is a source when
//
//	D(P) = |F_auth(P) ∩ f| / |F(P)| ≥ T
//
// where F_auth(P) is the hashes of F(P) whose authoritative holder is P
// (all of F(P), with auth off). At paragraph granularity D is the
// paper's Dpar, at document granularity its Ddoc. Sources are ordered by
// descending D, ties by ascending segment ID.
func (db *refDB) sources(f []uint32, seg segment.ID, auth bool) []disclosure.Source {
	in := make(map[uint32]bool, len(f))
	for _, h := range f {
		in[h] = true
	}
	var out []disclosure.Source
	seen := map[segment.ID]bool{seg: true}
	for _, h := range f {
		cands := db.holders[h]
		if auth && len(cands) > 0 {
			cands = cands[:1]
		}
		for _, p := range cands {
			if seen[p] {
				continue
			}
			seen[p] = true
			overlap := 0
			for _, ph := range db.fps[p] {
				if in[ph] && (!auth || db.holders[ph][0] == p) {
					overlap++
				}
			}
			if d := float64(overlap) / float64(len(db.fps[p])); overlap > 0 && d >= db.threshold {
				out = append(out, disclosure.Source{Seg: p, Disclosure: d, Threshold: db.threshold})
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

// record makes f seg's latest fingerprint, and seg the newest holder of
// each hash of f it has not held before. A holder stays one after its
// fingerprint moves on: first observation is never forgotten.
func (db *refDB) record(seg segment.ID, f []uint32) {
	db.fps[seg] = f
	for _, h := range f {
		held := false
		for _, p := range db.holders[h] {
			held = held || p == seg
		}
		if !held {
			db.holders[h] = append(db.holders[h], seg)
		}
	}
}
