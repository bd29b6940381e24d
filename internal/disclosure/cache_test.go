package disclosure

// Regression tests for the two decision-cache bugs fixed alongside the
// sharded hot path, kept now that a database memoises its decisions:
//
//  1. stale cache: ExpireBefore/RemoveSegment dropped segments from the
//     index but the Tracker kept their cache entries forever, so a
//     re-observation with an unchanged fingerprint served a Report naming
//     sources that no longer exist (each now moves the generation, which
//     outdates every decision memoised before it);
//  2. cache aliasing: the cached Report shared its Sources slice with the
//     Report handed to the caller, so a caller mutating its result
//     corrupted every future cache hit.

import (
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

const cacheTestText = "The quarterly staffing plan moves four engineers from the payments team " +
	"to the new disclosure tracking initiative starting in November this year."

func newCacheTestTracker(t *testing.T, mutate func(*Params)) *Tracker {
	t.Helper()
	params := DefaultParams()
	if mutate != nil {
		mutate(&params)
	}
	tr, err := NewTracker(params)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// memoLen counts the decisions both databases answer from their memos.
func memoLen(tr *Tracker) int { return tr.Paragraphs().MemoLen() + tr.Documents().MemoLen() }

func mustObserve(t *testing.T, tr *Tracker, seg segment.ID, text string) Report {
	t.Helper()
	r, err := tr.ObserveParagraph(seg, text)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExpireEvictsDecisionCache asserts that a segment dropped by
// ExpireBefore no longer serves a stale cached Report.
func TestExpireEvictsDecisionCache(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	mustObserve(t, tr, "doc#src", cacheTestText)
	got := mustObserve(t, tr, "doc#copy", cacheTestText)
	if len(got.Sources) != 1 || got.Sources[0].Seg != "doc#src" {
		t.Fatalf("setup: copy should disclose src, got %+v", got.Sources)
	}
	// The copy's new fingerprint moved the generation: only its own
	// decision is memoised.
	if n := memoLen(tr); n != 1 {
		t.Fatalf("memoised decisions = %d, want 1", n)
	}

	// Expire everything directly on the database, bypassing the Tracker —
	// the decisions must still be outdated.
	tr.Paragraphs().ExpireBefore(tr.Paragraphs().Now() + 1)
	if n := memoLen(tr); n != 0 {
		t.Fatalf("memoised decisions after expiry = %d, want 0 (stale entries kept)", n)
	}

	// Same text, same fingerprint digest: without eviction this would be a
	// cache hit reporting the long-gone doc#src as a source.
	again := mustObserve(t, tr, "doc#copy", cacheTestText)
	if again.CacheHit {
		t.Error("expired segment served a cached report")
	}
	if len(again.Sources) != 0 {
		t.Errorf("expired source still reported: %+v", again.Sources)
	}
}

// TestForgetEvictsDecisionCache asserts the same for RemoveSegment via
// Tracker.Forget and for direct RemoveSegment calls.
func TestForgetEvictsDecisionCache(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	mustObserve(t, tr, "doc#src", cacheTestText)
	mustObserve(t, tr, "doc#copy", cacheTestText)

	// Direct database removal (not through Forget) must also evict.
	tr.Paragraphs().RemoveSegment("doc#src")
	tr.Paragraphs().RemoveSegment("doc#copy")
	if n := memoLen(tr); n != 0 {
		t.Fatalf("memoised decisions after RemoveSegment = %d, want 0", n)
	}
	again := mustObserve(t, tr, "doc#copy", cacheTestText)
	if again.CacheHit || len(again.Sources) != 0 {
		t.Errorf("removed source leaked: hit=%v sources=%+v", again.CacheHit, again.Sources)
	}
}

// TestForgetRangeDropsDecisions: the source-side cleanup after a partition
// split removes segments from both databases, which outdates every
// decision either memoised before it, the kept segments' too: what the
// forgotten segments held may have been what those decisions rested on.
// Decided again with nothing changing in between, every segment answers
// from the memo again.
func TestForgetRangeDropsDecisions(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	segs := []segment.ID{"doc#a", "doc#b", "doc#c", "doc#d"}
	observe := func(pass int) (hits int) {
		for _, seg := range segs {
			p := mustObserve(t, tr, seg, cacheTestText+" "+string(seg))
			d, err := tr.ObserveDocument(seg, cacheTestText+" "+string(seg))
			if err != nil {
				t.Fatal(err)
			}
			if p.CacheHit {
				hits++
			}
			if d.CacheHit {
				hits++
			}
		}
		return hits
	}
	observe(0) // new fingerprints: each moves the generation
	observe(1) // unchanged: each decision is memoised
	if n := memoLen(tr); n != 2*len(segs) {
		t.Fatalf("memoised decisions = %d, want %d", n, 2*len(segs))
	}
	k := segment.Key("doc#b")
	if n := tr.ForgetRange(k, k); n != 2 {
		t.Fatalf("ForgetRange removed %d segments, want doc#b's paragraph and document", n)
	}
	if n := memoLen(tr); n != 0 {
		t.Fatalf("memoised decisions after ForgetRange = %d, want 0", n)
	}
	if hits := observe(2); hits != 0 {
		t.Errorf("%d cache hits after forgetting doc#b, want none", hits)
	}
	observe(3) // doc#b came back in the pass before: decide the rest again
	if hits := observe(4); hits != 2*len(segs) {
		t.Errorf("%d cache hits once every segment is decided again, want %d", hits, 2*len(segs))
	}
}

// TestCacheHitSourcesNotAliased asserts that mutating a returned Report's
// Sources cannot corrupt later cache hits — for both the report that
// populated the cache (miss path) and subsequent hits.
func TestCacheHitSourcesNotAliased(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	mustObserve(t, tr, "doc#src", cacheTestText)

	// Miss path: the report that populates the cache.
	first := mustObserve(t, tr, "doc#copy", cacheTestText)
	if first.CacheHit || len(first.Sources) != 1 {
		t.Fatalf("setup: want miss with 1 source, got hit=%v sources=%+v", first.CacheHit, first.Sources)
	}
	first.Sources[0].Seg = "corrupted/by-caller"
	first.Sources[0].Disclosure = -1

	// Hit path: must see the original source, then be mutated in turn.
	second := mustObserve(t, tr, "doc#copy", cacheTestText)
	if !second.CacheHit {
		t.Fatal("expected cache hit")
	}
	if second.Sources[0].Seg != "doc#src" || second.Sources[0].Disclosure <= 0 {
		t.Fatalf("cache corrupted by miss-path caller: %+v", second.Sources[0])
	}
	second.Sources[0].Seg = "corrupted/again"

	third := mustObserve(t, tr, "doc#copy", cacheTestText)
	if !third.CacheHit || third.Sources[0].Seg != "doc#src" {
		t.Fatalf("cache corrupted by hit-path caller: %+v", third.Sources[0])
	}
}

// TestBatchReportsNotAliased asserts the same ownership guarantee for the
// batch path.
func TestBatchReportsNotAliased(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	mustObserve(t, tr, "doc#src", cacheTestText)
	items := []BatchObservation{
		{Seg: "doc#copy", Text: cacheTestText},
		{Seg: "doc#copy", Text: cacheTestText}, // second item is a cache hit
	}
	reports, err := tr.ObserveBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || len(reports[0].Sources) != 1 || len(reports[1].Sources) != 1 {
		t.Fatalf("unexpected batch reports: %+v", reports)
	}
	if !reports[1].CacheHit {
		t.Error("second identical batch item should hit the cache")
	}
	reports[0].Sources[0].Seg = "corrupted"
	if reports[1].Sources[0].Seg != "doc#src" {
		t.Error("batch reports share a Sources slice")
	}
	again := mustObserve(t, tr, "doc#copy", cacheTestText)
	if again.Sources[0].Seg != "doc#src" {
		t.Error("cache corrupted through batch report")
	}
}

// TestBatchMatchesSingularSequence pins ObserveBatch to the exact
// behaviour of the equivalent singular call sequence, including the
// sequential visibility of earlier items.
func TestBatchMatchesSingularSequence(t *testing.T) {
	texts := []string{
		cacheTestText,
		cacheTestText + " A trailing sentence extends the copy beyond the original paragraph.",
		strings.Repeat("Fresh unrelated content about winter migration patterns of seabirds. ", 3),
	}
	single := newCacheTestTracker(t, nil)
	batch := newCacheTestTracker(t, nil)

	var items []BatchObservation
	var want []Report
	for i, text := range texts {
		for j := 0; j < 2; j++ { // observe each text twice to exercise hits
			seg := segment.ID("doc#p" + string(rune('0'+i)))
			items = append(items, BatchObservation{Seg: seg, Text: text})
			want = append(want, mustObserve(t, single, seg, text))
		}
	}
	got, err := batch.ObserveBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Seg != got[i].Seg || want[i].CacheHit != got[i].CacheHit ||
			want[i].FingerprintLen != got[i].FingerprintLen || len(want[i].Sources) != len(got[i].Sources) {
			t.Fatalf("item %d: batch diverged from singular sequence:\nwant %+v\n got %+v", i, want[i], got[i])
		}
	}
}

// TestCacheHitNeedsSameGranularity: one segment ID observed as a paragraph
// and then as a document names an entry in each database, so the first
// decision must not answer the second observation — a hit there left the
// document unindexed live while a cold-cache WAL replay indexed it.
func TestCacheHitNeedsSameGranularity(t *testing.T) {
	tr := newCacheTestTracker(t, nil)
	mustObserve(t, tr, "x", cacheTestText)
	fp, err := tr.Fingerprint(cacheTestText)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Documents().Decision("x", fp.Hashes()); ok {
		t.Error("the document database answered with the paragraph's decision")
	}
	got, err := tr.ObserveDocument("x", cacheTestText)
	if err != nil {
		t.Fatal(err)
	}
	if got.Granularity != segment.GranularityDocument || got.CacheHit {
		t.Errorf("ObserveDocument after ObserveParagraph = %v, cache hit %v; want a document report, no hit", got.Granularity, got.CacheHit)
	}
	if segs := tr.Documents().Segments(); len(segs) != 1 || segs[0] != "x" {
		t.Errorf("document DB segments = %v, want [x]", segs)
	}
	if got, _ := tr.ObserveDocument("x", cacheTestText); !got.CacheHit {
		t.Error("an unchanged document re-observation missed the cache")
	}
}
