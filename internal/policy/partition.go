package policy

import (
	"context"
	"strconv"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// Partitioned-cluster entry points. In a partitioned deployment each
// engine instance holds the vertical state (index, labels, cache) for the
// segments homed on its partition. A routed observation runs in two
// phases: phase 1 probes the home partition's decision cache (ObservePart)
// and, on a miss, hands back this partition's scatter contribution; the
// router merges contributions from every partition and phase 2
// (ObserveResolvedFPCtx) applies the merged result. The byte-equivalence
// contract with a single node is carried by three facts: candidate
// evaluation uses the identical arithmetic on identical inputs (the merge
// reconstructs the single-database oldest-holder assignment), SortSources
// imposes a total order erasing discovery order, and the verdict is
// evaluated at the segment's home against shadow labels mirroring every
// source's explicit tags.

// PartResolve is one partition's full contribution to a scatter-gather
// disclosure query. It is also the wire form: a /v1/part/query reply, and
// the "resolve" of a phase-1 /v1/part/observe miss.
type PartResolve struct {
	// Clock is the partition's logical time for the queried granularity;
	// routers fold it into their Lamport stamp so a restarted router
	// catches up with the cluster instead of stamping in the past.
	Clock uint64 `json:"clock"`

	// Oldest names the partition-local oldest holder of each query hash
	// (by hash index) with its first-observation sequence number.
	Oldest []index.OldestRef `json:"oldest,omitempty"`

	// Cands carries the evaluation facts and explicit tags of each
	// distinct local oldest holder.
	Cands []disclosure.RemoteCand `json:"cands,omitempty"`
}

// PartQuery computes this engine's contribution to a scatter-gather
// disclosure query: local oldest holders, candidate facts, and each
// candidate's explicit tags.
func (e *Engine) PartQuery(hashes []uint32, g segment.Granularity) PartResolve {
	refs, cands := e.tracker.ResolveQuery(hashes, g)
	for i := range cands {
		cands[i].Tags = e.explicitTags(cands[i].Seg)
	}
	return PartResolve{Clock: e.tracker.Clock(g), Oldest: refs, Cands: cands}
}

// explicitTags returns seg's explicit tags as sorted strings (nil when the
// segment has no label).
func (e *Engine) explicitTags(seg segment.ID) []string {
	label := e.registry.Label(seg)
	if label == nil {
		return nil
	}
	explicit := label.Explicit()
	if explicit.Len() == 0 {
		return nil
	}
	out := make([]string, 0, explicit.Len())
	for _, t := range explicit.Sorted() {
		out = append(out, string(t))
	}
	return out
}

// ObservePart is phase 1 of a routed observation at the segment's home
// partition. On a decision-cache hit it applies the observation exactly
// like a single-node cache hit would (label refresh from the cached
// sources, journalled as a resolved observation so replay needs no
// evaluation) and returns the verdict with done=true. On a miss it
// mutates nothing and returns this partition's scatter contribution with
// done=false; the router completes the observation through
// ObserveResolvedFPCtx.
func (e *Engine) ObservePart(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint, g segment.Granularity, clock uint64) (verdict Verdict, resolve PartResolve, done bool, err error) {
	sp := obs.StartSpan(ctx, "engine.observe_part")
	if sp.Active() {
		sp.SetAttr("seg", string(seg))
		sp.SetAttr("hashes", strconv.Itoa(len(fp.Hashes())))
		defer func() { sp.End(err) }()
	}
	report, hit := e.tracker.ProbeFP(seg, fp, g)
	if !hit {
		return Verdict{}, e.PartQuery(fp.Hashes(), g), false, nil
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	clock = e.stampClock(g, clock)
	e.tracker.SetClockFloor(g, clock)
	if err := e.registry.ObserveSegment(seg, service); err != nil {
		return Verdict{}, PartResolve{}, false, err
	}
	e.registry.RefreshImplicit(seg, report.SourceSegs())
	// A cache hit in partition mode is still journalled as a *resolved*
	// observation (cached sources + the sources' current local tags):
	// replaying it must not re-run Algorithm 1, whose inputs on this
	// partition are only a slice of the cluster's state.
	if err := e.journalObserveResolved(ctx, seg, service, g, fp.Hashes(), clock, report.Sources, e.sourceTags(report.Sources)); err != nil {
		return Verdict{}, PartResolve{}, false, err
	}
	v, err := e.verdictFor(seg, service, report.Sources, report.CacheHit)
	if err != nil {
		return Verdict{}, PartResolve{}, false, err
	}
	return v, PartResolve{}, true, nil
}

// stampClock returns the Lamport stamp a partition-mode mutation
// journals and floors into the index clock. A router-provided stamp is
// used as-is; an unstamped mutation (sole mode, or a direct client)
// self-stamps with the next tick, so every resolved record in the WAL
// carries an explicit stamp and a *filtered* replay — which skips
// out-of-range index updates and would otherwise drift its local clock
// below the source's — still assigns the same first-observation order.
func (e *Engine) stampClock(g segment.Granularity, clock uint64) uint64 {
	if clock > 0 {
		return clock
	}
	return e.tracker.Clock(g) + 1
}

// sourceTags collects the current explicit tags of each source segment.
func (e *Engine) sourceTags(sources []disclosure.Source) map[segment.ID][]string {
	if len(sources) == 0 {
		return nil
	}
	tags := make(map[segment.ID][]string, len(sources))
	for _, src := range sources {
		tags[src.Seg] = e.explicitTags(src.Seg)
	}
	return tags
}

// MergeResolves folds partition scatter replies into the disclosure
// sources a single shared database would have produced for a fpLen-hash
// fingerprint observed by exclude. The global oldest holder of each
// hash index is the minimum over the partition-local oldests (by
// sequence number, ties broken by ascending segment ID — the same total
// order one shared index imposes); every distinct global oldest other
// than the observer is then evaluated with the exact single-node
// candidate arithmetic using the facts its home partition shipped.
// It also returns the winning sources' explicit tags (for shadowing at
// the observer's home) and the maximum partition clock seen (for the
// router's Lamport stamp).
func MergeResolves(fpLen int, exclude segment.ID, replies []PartResolve) (sources []disclosure.Source, tags map[segment.ID][]string, maxClock uint64) {
	type ref struct {
		seg segment.ID
		seq uint64
	}
	oldest := make(map[int]ref)
	cands := make(map[segment.ID]disclosure.RemoteCand)
	for _, r := range replies {
		if r.Clock > maxClock {
			maxClock = r.Clock
		}
		for _, o := range r.Oldest {
			cur, ok := oldest[o.Idx]
			if !ok || o.Seq < cur.seq || (o.Seq == cur.seq && o.Seg < cur.seg) {
				oldest[o.Idx] = ref{seg: o.Seg, seq: o.Seq}
			}
		}
		for _, c := range r.Cands {
			// First reply wins: a segment lives on exactly one partition,
			// so duplicates (possible only in a split window, when source
			// and target briefly both answer for the moving range) carry
			// identical facts.
			if _, ok := cands[c.Seg]; !ok {
				cands[c.Seg] = c
			}
		}
	}
	// A candidate's authoritative overlap is the number of hash indices
	// whose *global* oldest holder it is: it necessarily holds each such
	// hash, and no other candidate is authoritative for it.
	counts := make(map[segment.ID]int, len(cands))
	for _, r := range oldest {
		counts[r.seg]++
	}
	for cand, overlap := range counts {
		if cand == exclude {
			continue
		}
		entry, ok := cands[cand]
		if !ok {
			continue
		}
		// Identical arithmetic to evaluateCandidate, fed by the shipped
		// facts instead of local index lookups.
		if entry.Len == 0 || float64(entry.Len)*entry.Threshold > float64(fpLen) {
			continue
		}
		d := float64(overlap) / float64(entry.Len)
		if d < entry.Threshold {
			continue
		}
		sources = append(sources, disclosure.Source{Seg: cand, Disclosure: d, Threshold: entry.Threshold})
	}
	disclosure.SortSources(sources)
	if len(sources) > 0 {
		tags = make(map[segment.ID][]string, len(sources))
		for _, src := range sources {
			if t := cands[src.Seg].Tags; len(t) > 0 {
				tags[src.Seg] = t
			}
		}
		if len(tags) == 0 {
			tags = nil
		}
	}
	return sources, tags, maxClock
}

// ObserveSoleFPCtx is the partition-mode observation path for a
// single-partition ring: the same probe / query / resolved-apply cycle
// as a routed observation, collapsed in-process so it stays one round
// trip. Journalling still goes through resolved records, so a later
// split can replay this partition's WAL with deterministic sequence
// numbers (every record carries its Lamport stamp).
func (e *Engine) ObserveSoleFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint, g segment.Granularity, clock uint64) (Verdict, error) {
	v, resolve, done, err := e.ObservePart(ctx, seg, service, fp, g, clock)
	if err != nil || done {
		return v, err
	}
	sources, tags, _ := MergeResolves(fp.Len(), seg, []PartResolve{resolve})
	return e.ObserveResolvedFPCtx(ctx, seg, service, fp, g, clock, sources, tags)
}

// ObserveResolvedFPCtx is phase 2 of a routed observation: it applies a
// router-merged disclosure result at the segment's home partition. The
// shadow upserts run before RefreshImplicit, so the implicit-label
// computation sees every source's explicit tags exactly as a shared
// registry would; clock is the router's Lamport stamp, floored into the
// index clock before the update so first-observation order across
// partitions matches a single shared clock.
func (e *Engine) ObserveResolvedFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint, g segment.Granularity, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) (verdict Verdict, err error) {
	sp := obs.StartSpan(ctx, "engine.observe_resolved")
	if sp.Active() {
		sp.SetAttr("seg", string(seg))
		sp.SetAttr("hashes", strconv.Itoa(len(fp.Hashes())))
		defer func() { sp.End(err) }()
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	clock = e.stampClock(g, clock)
	e.tracker.SetClockFloor(g, clock)
	if err := e.registry.ObserveSegment(seg, service); err != nil {
		return Verdict{}, err
	}
	e.applyShadowTags(tags)
	report := e.tracker.ObserveResolvedFP(seg, fp, g, sources)
	e.registry.RefreshImplicit(seg, report.SourceSegs())
	if err := e.journalObserveResolved(ctx, seg, service, g, fp.Hashes(), clock, sources, tags); err != nil {
		return Verdict{}, err
	}
	return e.verdictFor(seg, service, report.Sources, report.CacheHit)
}

// applyShadowTags mirrors foreign sources' explicit tags into the local
// registry (no audit entries — the mutations being mirrored were audited
// at their home partition).
func (e *Engine) applyShadowTags(tags map[segment.ID][]string) {
	for seg, names := range tags {
		ts := make([]tdm.Tag, len(names))
		for i, n := range names {
			ts[i] = tdm.Tag(n)
		}
		e.registry.UpsertExplicit(seg, ts)
	}
}

// CheckResolved evaluates an ad-hoc release check whose disclosure
// sources and implicit tag set were resolved by the routing tier — the
// checkSources enforcement body with the registry lookups replaced by the
// scatter-gathered tags.
func (e *Engine) CheckResolved(destService string, sources []disclosure.Source, implicit []string) (Verdict, error) {
	set := make(tdm.TagSet, len(implicit))
	for _, n := range implicit {
		set.Add(tdm.Tag(n))
	}
	ok, violating, err := e.registry.CheckTags(set, destService)
	return e.adHocVerdict(ok, violating, err, sources, destService)
}

// PruneRange removes every segment homed in the inclusive key range
// [lo, hi] from the tracker (labels stay: they are global shadow state),
// journalling the prune so recovery converges to the post-split image.
// This is the source partition's cleanup after a split moves the range to
// a new partition.
func (e *Engine) PruneRange(ctx context.Context, lo, hi uint32) (removed int, err error) {
	sp := obs.StartSpan(ctx, "engine.prune_range")
	if sp.Active() {
		defer func() { sp.End(err) }()
	}
	if end := e.begin(); end != nil {
		defer end()
	}
	removed = e.tracker.ForgetRange(lo, hi)
	if j := e.journalRef(); j != nil {
		if jerr := j.PruneRange(ctx, lo, hi); jerr != nil {
			return removed, journalErr(jerr)
		}
	}
	return removed, nil
}
