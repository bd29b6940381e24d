// Package disclosure implements BrowserFlow's imprecise data flow tracking
// (§4): the document/paragraph disclosure metrics, their authoritative
// adjustment for overlapping documents (§4.3), and Algorithm 1, which
// answers the information disclosure problem — "what is the set of original
// sources in the database that this text discloses significant information
// from currently?".
package disclosure

import (
	"fmt"
	"sync"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
)

// Params configures a Tracker. The zero value is not usable; use
// DefaultParams.
type Params struct {
	// Fingerprint holds the winnowing parameters (paper: 15-char n-grams,
	// window 30, 32-bit hashes).
	Fingerprint fingerprint.Config

	// Tpar is the default paragraph disclosure threshold (paper: 0.5).
	Tpar float64

	// Tdoc is the default document disclosure threshold (paper: 0.5).
	Tdoc float64

	// DisableAuthoritative turns off the authoritative-fingerprint
	// adjustment of §4.3 and uses raw pairwise containment. Only used by
	// the ablation experiments; leave false in production.
	DisableAuthoritative bool

	// DisableCache turns off the decision cache: no decision is kept on a
	// DBpar row, so none answers a re-observation. Only used by the
	// ablation experiments.
	DisableCache bool
}

// DefaultParams returns the configuration used in the paper's evaluation.
func DefaultParams() Params {
	return Params{
		Fingerprint: fingerprint.DefaultConfig(),
		Tpar:        0.5,
		Tdoc:        0.5,
	}
}

// Source is one origin segment from which significant information is being
// disclosed. The index owns the type: a DBpar row keeps the sources of the
// decision made for its fingerprint.
type Source = index.Source

// Report is the outcome of observing one text segment.
type Report struct {
	// Seg is the observed segment.
	Seg segment.ID

	// Granularity records whether this was a paragraph or document
	// observation.
	Granularity segment.Granularity

	// FingerprintLen is the number of distinct hashes of the observed text.
	FingerprintLen int

	// Sources lists the origin segments whose disclosure requirement the
	// observed text meets, sorted by descending disclosure.
	Sources []Source

	// CacheHit reports whether the result was served from the decision
	// cache: the segment's DBpar row held this fingerprint, decided.
	CacheHit bool
}

// Disclosing reports whether the observation met any origin's disclosure
// requirement.
func (r Report) Disclosing() bool { return len(r.Sources) > 0 }

// SourceSegs returns just the origin segment IDs.
func (r Report) SourceSegs() []segment.ID {
	out := make([]segment.ID, len(r.Sources))
	for i, s := range r.Sources {
		out[i] = s.Seg
	}
	return out
}

// Tracker maintains the paragraph- and document-granularity fingerprint
// databases and serves disclosure queries. It is safe for concurrent use.
//
// Both databases keep their per-segment state as rows of one
// segment.Table (Table), which a tdm.Registry paired with the tracker
// shares. The decision cache is no structure of the tracker's: each DBpar
// row holds the decision made for its fingerprint (see index.Decision),
// under the same stripe lock, so a decision goes with its row.
type Tracker struct {
	params Params

	segs *segment.Table
	pars *index.DB
	docs *index.DB

	// scratchPool recycles the per-observation working set (candidate
	// buffer, dedup map, sources buffer) across singular observes, so the
	// steady-state hot path performs no per-call scratch allocations.
	scratchPool sync.Pool
}

// NewTracker returns a Tracker with the given parameters.
func NewTracker(params Params) (*Tracker, error) {
	if err := params.Fingerprint.Validate(); err != nil {
		return nil, err
	}
	if params.Tpar < 0 || params.Tpar > 1 {
		return nil, fmt.Errorf("disclosure: Tpar %v out of [0,1]", params.Tpar)
	}
	if params.Tdoc < 0 || params.Tdoc > 1 {
		return nil, fmt.Errorf("disclosure: Tdoc %v out of [0,1]", params.Tdoc)
	}
	segs := &segment.Table{}
	t := &Tracker{
		params: params,
		segs:   segs,
		pars:   index.New(segs, params.Tpar),
		docs:   index.New(segs, params.Tdoc),
	}
	t.scratchPool.New = func() any { return newObserveScratch() }
	return t, nil
}

// Table returns the segment table whose refs index the tracker's
// per-segment state.
func (t *Tracker) Table() *segment.Table { return t.segs }

// decided returns the report of the decision seg's row in db holds for fp,
// if it holds one. Each granularity has its own database, so a decision of
// the other granularity is a miss.
func (t *Tracker) decided(seg segment.ID, fp *fingerprint.Fingerprint, g segment.Granularity, db *index.DB) (Report, bool) {
	if t.params.DisableCache {
		return Report{}, false
	}
	sources, ok := db.Decision(seg, fp.Hashes())
	if !ok {
		return Report{}, false
	}
	return Report{Seg: seg, Granularity: g, FingerprintLen: fp.Len(), Sources: sources, CacheHit: true}, true
}

// cloneSources returns an owned copy of sources, preserving nil-ness so
// serialised reports stay byte-identical. Decided rows and the reports
// handed to callers must not share a Sources slice: a caller mutating its
// result would otherwise corrupt every future cache hit.
func cloneSources(sources []Source) []Source {
	if sources == nil {
		return nil
	}
	out := make([]Source, len(sources))
	copy(out, sources)
	return out
}

// Params returns the tracker's configuration.
func (t *Tracker) Params() Params { return t.params }

// Paragraphs exposes the paragraph-granularity database (read-mostly use:
// stats, thresholds, persistence).
func (t *Tracker) Paragraphs() *index.DB { return t.pars }

// Documents exposes the document-granularity database.
func (t *Tracker) Documents() *index.DB { return t.docs }

// Fingerprint computes the fingerprint of text under the tracker's
// parameters without updating any state. The result is owned by the
// caller; the intermediate buffers come from the tracker's scratch pool.
func (t *Tracker) Fingerprint(text string) (*fingerprint.Fingerprint, error) {
	sc := t.scratchPool.Get().(*observeScratch)
	fp, err := sc.fps.Compute(text, t.params.Fingerprint)
	t.scratchPool.Put(sc)
	return fp, err
}

// ObserveParagraph records the current text of a paragraph segment and
// returns the set of origin paragraphs it now discloses. This is the per-
// keystroke entry point of the middleware: the decision cache means that
// edits that do not change the winnowed fingerprint are answered without
// recomputing Algorithm 1.
func (t *Tracker) ObserveParagraph(seg segment.ID, text string) (Report, error) {
	return t.observe(seg, text, segment.GranularityParagraph, t.pars)
}

// ObserveDocument records the current text of a whole document and returns
// the origin documents it discloses.
func (t *Tracker) ObserveDocument(seg segment.ID, text string) (Report, error) {
	return t.observe(seg, text, segment.GranularityDocument, t.docs)
}

// ObserveParagraphFP is ObserveParagraph for a fingerprint computed by the
// caller — the entry point for remote clients that keep text on-device and
// ship hashes only (tag-server deployments).
func (t *Tracker) ObserveParagraphFP(seg segment.ID, fp *fingerprint.Fingerprint) (Report, error) {
	return t.observeFP(seg, fp, segment.GranularityParagraph, t.pars)
}

// ObserveDocumentFP is ObserveDocument for a caller-computed fingerprint.
func (t *Tracker) ObserveDocumentFP(seg segment.ID, fp *fingerprint.Fingerprint) (Report, error) {
	return t.observeFP(seg, fp, segment.GranularityDocument, t.docs)
}

// QueryParagraphFP runs Algorithm 1 for a caller-computed fingerprint
// without recording it.
func (t *Tracker) QueryParagraphFP(fp *fingerprint.Fingerprint, exclude segment.ID) []Source {
	return t.sources(fp, exclude, t.pars)
}

func (t *Tracker) observe(seg segment.ID, text string, g segment.Granularity, db *index.DB) (Report, error) {
	sc := t.scratchPool.Get().(*observeScratch)
	fp, err := sc.fps.ComputeShared(text, t.params.Fingerprint)
	if err != nil {
		t.scratchPool.Put(sc)
		return Report{}, err
	}
	report, err := t.observeFPScratch(seg, fp, true, g, db, sc)
	t.scratchPool.Put(sc)
	return report, err
}

func (t *Tracker) observeFP(seg segment.ID, fp *fingerprint.Fingerprint, g segment.Granularity, db *index.DB) (Report, error) {
	sc := t.scratchPool.Get().(*observeScratch)
	report, err := t.observeFPScratch(seg, fp, false, g, db, sc)
	t.scratchPool.Put(sc)
	return report, err
}

// observeFPScratch is observeFP with an optional reusable scratch space
// (see ObserveBatch): a batch flush amortises the per-observation map and
// candidate-buffer allocations across all its items.
//
// borrowed marks fp as scratch-shared (it aliases sc.fps and is valid only
// for this call): the decided fast path never retains it, so a cache hit
// stays allocation-free, and a miss detaches it with one Clone just before
// the index update retains it.
func (t *Tracker) observeFPScratch(seg segment.ID, fp *fingerprint.Fingerprint, borrowed bool, g segment.Granularity, db *index.DB, sc *observeScratch) (Report, error) {
	if report, ok := t.decided(seg, fp, g, db); ok {
		return report, nil
	}
	if borrowed {
		// Past the cache check the fingerprint is retained (db.Update
		// stores it as the segment's latest fingerprint) — detach it from
		// the scratch first.
		fp = fp.Clone()
	}

	// raw is backed by the (possibly pooled) scratch buffer — it must be
	// copied out before this call returns.
	raw := t.sourcesScratch(fp, seg, db, sc)
	return t.update(seg, fp, g, db, raw), nil
}

// update finishes an evaluated observation of seg: it stores fp in db with
// the decision made for it and builds the report from the resolved
// sources (which it copies, so raw may be scratch-backed).
func (t *Tracker) update(seg segment.ID, fp *fingerprint.Fingerprint, g segment.Granularity, db *index.DB, raw []Source) Report {
	// The caller's report and the decided row need independent Sources
	// slices (a caller mutating its result must not corrupt future cache
	// hits); both copies come out of one allocation, with full-slice-
	// expression caps so neither can append into the other. nil-ness is
	// preserved so serialised reports stay byte-identical.
	report := Report{Seg: seg, Granularity: g, FingerprintLen: fp.Len()}
	if t.params.DisableCache {
		report.Sources = cloneSources(raw)
		db.Update(seg, fp, nil)
		return report
	}
	d := index.Decision{}
	if n := len(raw); n > 0 {
		buf := make([]Source, 2*n)
		copy(buf, raw)
		copy(buf[n:], raw)
		report.Sources, d.Sources = buf[:n:n], buf[n:]
	}
	db.Update(seg, fp, &d)
	return report
}

// QueryParagraph runs Algorithm 1 for text against the paragraph database
// without recording the text as a new observation.
func (t *Tracker) QueryParagraph(text string, exclude segment.ID) ([]Source, error) {
	return t.query(text, exclude, t.pars)
}

// query fingerprints text into the pooled scratch (queries never retain the
// fingerprint, so no detach is needed) and runs Algorithm 1.
func (t *Tracker) query(text string, exclude segment.ID, db *index.DB) ([]Source, error) {
	sc := t.scratchPool.Get().(*observeScratch)
	fp, err := sc.fps.ComputeShared(text, t.params.Fingerprint)
	if err != nil {
		t.scratchPool.Put(sc)
		return nil, err
	}
	out := cloneSources(t.sourcesScratch(fp, exclude, db, sc))
	t.scratchPool.Put(sc)
	return out, nil
}

// observeScratch holds the per-observation working set of Algorithm 1 so
// singular observes (via the Tracker's scratch pool) and batch flushes can
// reuse it across calls instead of reallocating.
type observeScratch struct {
	checked map[segment.ID]bool
	cands   []segment.ID
	holders []segment.ID
	out     []Source

	// fps holds the fingerprinting buffers (normalised text, hash
	// sequence, winnowing ring), so text-bearing observes compute their
	// fingerprint without per-call allocations. Fingerprints produced from
	// it alias the scratch and are cloned at the single point they are
	// retained (see observeFPScratch).
	fps fingerprint.Scratch
}

func newObserveScratch() *observeScratch {
	return &observeScratch{checked: make(map[segment.ID]bool)}
}

// reset clears the scratch for the next observation.
func (sc *observeScratch) reset() {
	clear(sc.checked)
	sc.cands = sc.cands[:0]
	sc.out = sc.out[:0]
}

// evaluateInto evaluates candidate p (once) and appends it to the scratch
// sources buffer when it meets its disclosure threshold. A method rather
// than a closure: the singular observe path must not allocate a closure
// environment per call.
func (t *Tracker) evaluateInto(fp *fingerprint.Fingerprint, p, self segment.ID, db *index.DB, sc *observeScratch) {
	if p == self || sc.checked[p] {
		return
	}
	sc.checked[p] = true
	if src, ok := t.evaluateCandidate(fp, p, db); ok {
		sc.out = append(sc.out, src)
	}
}

// sources implements Algorithm 1 of the paper: it returns the origin
// segments whose (authoritative) disclosure towards fp meets their
// threshold. Candidates are discovered through the oldest holder of each of
// fp's hashes, so the complexity is linear in the number of segments that
// share at least one hash with fp.
func (t *Tracker) sources(fp *fingerprint.Fingerprint, self segment.ID, db *index.DB) []Source {
	sc := t.scratchPool.Get().(*observeScratch)
	// The scratch-backed result must be copied out before the scratch is
	// recycled.
	out := cloneSources(t.sourcesScratch(fp, self, db, sc))
	t.scratchPool.Put(sc)
	return out
}

// sourcesScratch is sources with an optional reusable scratch space. The
// returned slice is backed by the scratch's sources buffer (nil when no
// source meets its threshold): callers must copy it out before the scratch
// is reset, recycled, or used for another observation.
// Candidate discovery batches the oldest-holder lookups (one index shard
// acquisition per contiguous hash run) and candidate evaluation happens
// after the lookups, outside any index lock.
func (t *Tracker) sourcesScratch(fp *fingerprint.Fingerprint, self segment.ID, db *index.DB, sc *observeScratch) []Source {
	if fp.Empty() {
		return nil
	}
	if sc == nil {
		sc = newObserveScratch()
	} else {
		sc.reset()
	}
	if t.params.DisableAuthoritative {
		// Ablation path: every holder of every hash is a candidate. The
		// holder lists reuse one scratch buffer across all hashes.
		for _, h := range fp.Hashes() {
			sc.holders = db.AppendHolders(h, sc.holders[:0])
			for _, p := range sc.holders {
				t.evaluateInto(fp, p, self, db, sc)
			}
		}
	} else {
		sc.cands = db.AppendOldestHolders(fp.Hashes(), sc.cands)
		// One segment is typically the oldest holder of a run of
		// consecutive hashes, so the candidate list is mostly adjacent
		// duplicates; skipping them here avoids a string-keyed map probe
		// per hash before the checked-set dedup.
		var last segment.ID
		for _, p := range sc.cands {
			if p == last {
				continue
			}
			last = p
			t.evaluateInto(fp, p, self, db, sc)
		}
	}
	sortSources(sc.out)
	if len(sc.out) == 0 {
		return nil
	}
	return sc.out
}

// evaluateCandidate runs the per-candidate body of Algorithm 1: threshold
// lookup, early discard, authoritative overlap, decision. Origin fetches
// the candidate's fingerprint and threshold in one stripe acquisition
// (the seed paid two locked calls here).
func (t *Tracker) evaluateCandidate(fp *fingerprint.Fingerprint, p segment.ID, db *index.DB) (Source, bool) {
	origin, threshold, ok := db.Origin(p)
	if !ok || len(origin) == 0 {
		return Source{}, false
	}
	if float64(len(origin))*threshold > float64(fp.Len()) {
		return Source{}, false
	}
	var overlap, originLen int
	if t.params.DisableAuthoritative {
		overlap = fingerprint.FromSortedHashes(origin).IntersectCount(fp)
		originLen = len(origin)
	} else {
		overlap, originLen = db.AuthoritativeOverlap(p, fp)
	}
	if originLen == 0 || overlap == 0 {
		return Source{}, false
	}
	d := float64(overlap) / float64(originLen)
	if d < threshold {
		return Source{}, false
	}
	return Source{Seg: p, Disclosure: d, Threshold: threshold}, true
}

// sortSources orders sources by descending disclosure, breaking ties by
// ascending segment ID. Hand-rolled insertion sort: candidate sets are
// small, and sort.Slice's reflection-based swapper allocates on every call
// — this keeps the observe hot path allocation-free. The (Disclosure, Seg)
// key is a strict total order over distinct segments, so the result is
// identical to any comparison sort.
func sortSources(out []Source) {
	for i := 1; i < len(out); i++ {
		s := out[i]
		j := i - 1
		for j >= 0 && sourceLess(s, out[j]) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = s
	}
}

// sourceLess is the sortSources ordering predicate.
func sourceLess(a, b Source) bool {
	if a.Disclosure != b.Disclosure {
		return a.Disclosure > b.Disclosure
	}
	return a.Seg < b.Seg
}

// Pairwise returns the unadjusted pairwise disclosure D(a, b) = |F(a) ∩
// F(b)| / |F(a)| between two texts, the §4.2 definition before the
// overlapping-documents fix. It is independent of tracker state.
func (t *Tracker) Pairwise(a, b string) (float64, error) {
	fa, err := fingerprint.Compute(a, t.params.Fingerprint)
	if err != nil {
		return 0, err
	}
	fb, err := fingerprint.Compute(b, t.params.Fingerprint)
	if err != nil {
		return 0, err
	}
	return fa.Containment(fb), nil
}

// Forget removes a segment, and so its decision, from the given
// granularity's database.
func (t *Tracker) Forget(seg segment.ID, g segment.Granularity) {
	t.dbFor(g).RemoveSegment(seg)
}

// CacheLen returns the number of decided rows in both databases (for
// tests and metrics).
func (t *Tracker) CacheLen() int {
	p, _ := t.pars.Decisions()
	d, _ := t.docs.Decisions()
	return p + d
}
