package disclosure

import (
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
)

// Partition support: a partitioned cluster homes each segment (and its
// postings) on exactly one partition, so Algorithm 1's candidate discovery
// for a fingerprint spanning partitions becomes a scatter-gather. Each
// partition answers the pieces only it can compute — its local oldest
// holders with their first-observation sequence numbers, and per-candidate
// fingerprint facts (length, threshold, overlapping hash positions) — and
// the routing tier merges replies into exactly the evaluation
// evaluateCandidate performs against one shared database. The methods in
// this file are those local pieces plus the resolved-application path that
// applies a router-merged result without re-running Algorithm 1.

// RemoteCand carries the per-candidate facts a remote evaluator needs to
// run the candidate body of Algorithm 1 without this partition's database:
// |F(p)| and the threshold for the early-discard and ratio steps, and the
// query-hash positions covered by F(p) so authoritative overlap can be
// counted against a merged oldest-holder assignment. The JSON tags are the
// node↔router wire form (a /v1/part/query reply's "cands" list).
type RemoteCand struct {
	Seg       segment.ID `json:"seg"`
	Len       int        `json:"len"`
	Threshold float64    `json:"thr"`

	// Overlap lists the indices i of the query hash slice with
	// hashes[i] ∈ F(Seg). Query hashes are sorted and distinct (they come
	// from a fingerprint), so each index contributes at most one overlap
	// unit, exactly like AuthoritativeOverlap's linear merge.
	Overlap []int `json:"ov,omitempty"`

	// Tags is the candidate's explicit tags, filled in by the policy
	// engine (the tracker knows no labels), so the winner's labels can be
	// mirrored wherever the verdict is evaluated without a second round
	// trip.
	Tags []string `json:"tags,omitempty"`
}

// ResolveQuery computes this partition's contribution to a scatter-gather
// disclosure query: the local oldest holder of every query hash (with
// sequence numbers, so authority merges across partitions) and the
// candidate facts for each distinct local oldest holder. Candidates whose
// fingerprint is absent or empty are omitted — evaluateCandidate rejects
// them unconditionally, so the router treats a missing entry as a
// non-candidate.
func (t *Tracker) ResolveQuery(hashes []uint32, g segment.Granularity) ([]index.OldestRef, []RemoteCand) {
	db := t.dbFor(g)
	refs := db.AppendOldestRefs(hashes, nil)
	if len(refs) == 0 {
		return nil, nil
	}
	seen := make(map[segment.ID]bool, len(refs))
	var cands []RemoteCand
	for _, ref := range refs {
		if seen[ref.Seg] {
			continue
		}
		seen[ref.Seg] = true
		origin, threshold, ok := db.Origin(ref.Seg)
		if !ok || len(origin) == 0 {
			continue
		}
		cands = append(cands, RemoteCand{
			Seg:       ref.Seg,
			Len:       len(origin),
			Threshold: threshold,
			Overlap:   overlapIndices(origin, hashes),
		})
	}
	return refs, cands
}

// overlapIndices returns the indices of hashes covered by a, the origin's
// hashes. Both sides are sorted ascending, so this is one linear merge.
func overlapIndices(a, hashes []uint32) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(hashes) {
		switch {
		case a[i] < hashes[j]:
			i++
		case a[i] > hashes[j]:
			j++
		default:
			out = append(out, j)
			i++
			j++
		}
	}
	return out
}

// ObserveResolvedFP applies an observation whose disclosure sources were
// already resolved elsewhere (by the routing tier's merge, or by WAL
// replay of such an observation): it stores the fingerprint in the index,
// mirroring the state transitions of observeFPScratch with the evaluation
// replaced by the provided result. Nothing is memoised: this database
// cannot tell when a change elsewhere outdates such a result. The caller
// owns fp and sources.
func (t *Tracker) ObserveResolvedFP(seg segment.ID, fp *fingerprint.Fingerprint, g segment.Granularity, sources []Source) Report {
	t.dbFor(g).Update(seg, fp, nil)
	return Report{Seg: seg, Granularity: g, FingerprintLen: fp.Len(), Sources: cloneSources(sources)}
}

// SetClockFloor raises the logical clock of the given granularity's
// database to at least floor (see index.DB.SetClockFloor).
func (t *Tracker) SetClockFloor(g segment.Granularity, floor uint64) {
	t.dbFor(g).SetClockFloor(floor)
}

// Clock returns the current logical time of the given granularity's
// database; partition replies carry it so routers fold partition clocks
// into their Lamport stamp.
func (t *Tracker) Clock(g segment.Granularity) uint64 {
	return t.dbFor(g).Now()
}

// ForgetRange removes every segment whose partition key falls in the
// inclusive range [lo, hi] from both databases. It returns the number of
// segments removed. This is the source-side cleanup after a partition split hands
// a key range to a new partition; labels are deliberately untouched — the
// registry is global shadow state in a partitioned cluster.
func (t *Tracker) ForgetRange(lo, hi uint32) int {
	n := 0
	for _, db := range []*index.DB{t.pars, t.docs} {
		for _, seg := range db.Segments() {
			if k := segment.Key(seg); k >= lo && k <= hi {
				db.RemoveSegment(seg)
				n++
			}
		}
	}
	return n
}

// dbFor selects the database tracking the given granularity.
func (t *Tracker) dbFor(g segment.Granularity) *index.DB {
	if g == segment.GranularityDocument {
		return t.docs
	}
	return t.pars
}

// SortSources orders sources by descending disclosure, ties by ascending
// segment ID — the exported form of the total order every Report carries,
// so a router merging candidate evaluations from several partitions
// produces the same byte sequence as a single-node evaluation.
func SortSources(out []Source) { sortSources(out) }
