package disclosure_test

// Golden-equivalence harness: the sharded, allocation-lean Algorithm 1 hot
// path, decision cache on, must report what Algorithm 1 stated directly
// reports. expt.Reference is that statement (maps, no cache, no locks);
// the tests replay the synthetic evaluation corpora through both and
// compare every Report via its JSON encoding, all but CacheHit, which the
// reference has nothing to compare with: a cache hit must answer what a
// fresh run of Algorithm 1 answers.

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/expt"
	"github.com/lsds/browserflow/internal/segment"
)

// --- corpus replay --------------------------------------------------------

// goldenCorpus yields the observation stream the equivalence tests replay:
// every sampled revision of every synthetic article, paragraph by
// paragraph, plus a whole-document observation per revision.
type goldenObs struct {
	seg  segment.ID
	text string
	g    segment.Granularity
}

func goldenStream(t *testing.T) []goldenObs {
	t.Helper()
	articles := dataset.GenerateRevisionCorpus(dataset.RevisionCorpusConfig{
		Seed:               7,
		Revisions:          8,
		Paragraphs:         6,
		StableVolatility:   0.01,
		VolatileVolatility: 0.25,
	})
	var stream []goldenObs
	for _, a := range articles {
		doc := segment.DocumentID("wiki/" + a.Title)
		for r, rev := range a.Revisions {
			if r%2 == 1 && r != len(a.Revisions)-1 {
				continue // sample every other revision plus the latest
			}
			for i, par := range rev {
				stream = append(stream, goldenObs{
					seg:  segment.ParSegmentID(doc, fmt.Sprintf("p%d", i)),
					text: par,
					g:    segment.GranularityParagraph,
				})
			}
			var full string
			for i, par := range rev {
				if i > 0 {
					full += "\n\n"
				}
				full += par
			}
			stream = append(stream, goldenObs{
				seg:  segment.DocSegmentID(doc),
				text: full,
				g:    segment.GranularityDocument,
			})
		}
	}
	if len(stream) < 100 {
		t.Fatalf("corpus too small: %d observations", len(stream))
	}
	return stream
}

// reportJSON encodes r without its CacheHit.
func reportJSON(t *testing.T, r disclosure.Report) string {
	t.Helper()
	r.CacheHit = false
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runGolden replays the corpus through the reference and the engine under
// params and requires byte-identical reports.
func runGolden(t *testing.T, params disclosure.Params) {
	t.Helper()
	stream := goldenStream(t)
	ref := expt.NewReference(params)
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		t.Fatal(err)
	}
	var hits, disclosing int
	for i, obs := range stream {
		want, err := ref.Observe(obs.seg, obs.text, obs.g)
		if err != nil {
			t.Fatal(err)
		}
		var got disclosure.Report
		if obs.g == segment.GranularityDocument {
			got, err = tracker.ObserveDocument(obs.seg, obs.text)
		} else {
			got, err = tracker.ObserveParagraph(obs.seg, obs.text)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, gotJSON := reportJSON(t, want), reportJSON(t, got)
		if wantJSON != gotJSON {
			t.Fatalf("observation %d (%s): report diverged\nreference: %s\n   engine: %s", i, obs.seg, wantJSON, gotJSON)
		}
		if got.CacheHit {
			hits++
		}
		if got.Disclosing() {
			disclosing++
		}
	}
	// The corpus must actually exercise the interesting paths; a vacuously
	// green equivalence test would be worthless.
	if hits == 0 && !params.DisableCache {
		t.Error("corpus never hit the decision cache")
	}
	if disclosing == 0 {
		t.Error("corpus never produced a disclosing report")
	}
}

// TestGoldenEquivalenceDefault pins the default (authoritative, cached,
// non-incremental) engine to the reference.
func TestGoldenEquivalenceDefault(t *testing.T) {
	runGolden(t, disclosure.DefaultParams())
}

// TestGoldenEquivalenceNoCache pins the uncached ablation.
func TestGoldenEquivalenceNoCache(t *testing.T) {
	params := disclosure.DefaultParams()
	params.DisableCache = true
	runGolden(t, params)
}

// TestGoldenEquivalenceNoAuthoritative pins the raw-containment ablation
// (every holder is a candidate).
func TestGoldenEquivalenceNoAuthoritative(t *testing.T) {
	params := disclosure.DefaultParams()
	params.DisableAuthoritative = true
	runGolden(t, params)
}

// TestGoldenEquivalencePeriodicCompact replays the corpus while merging
// the index heads into their compacted runs every few observations — the
// cadence a long-lived bftagd runs with -compact-every. Reports must stay
// byte-identical to the reference, which never merges, pinning that
// mid-stream compaction is invisible to Algorithm 1.
func TestGoldenEquivalencePeriodicCompact(t *testing.T) {
	params := disclosure.DefaultParams()
	stream := goldenStream(t)
	ref := expt.NewReference(params)
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, obs := range stream {
		want, err := ref.Observe(obs.seg, obs.text, obs.g)
		if err != nil {
			t.Fatal(err)
		}
		var got disclosure.Report
		if obs.g == segment.GranularityDocument {
			got, err = tracker.ObserveDocument(obs.seg, obs.text)
		} else {
			got, err = tracker.ObserveParagraph(obs.seg, obs.text)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, gotJSON := reportJSON(t, want), reportJSON(t, got)
		if wantJSON != gotJSON {
			t.Fatalf("observation %d (%s): report diverged after periodic compaction\nreference: %s\n   engine: %s", i, obs.seg, wantJSON, gotJSON)
		}
		if i%23 == 22 {
			tracker.Paragraphs().Compact()
			tracker.Documents().Compact()
		}
	}
}

// TestGoldenEquivalenceBatch replays the same corpus through ObserveBatch
// in flushes and requires the flushed reports to match the reference's
// one-by-one replay.
func TestGoldenEquivalenceBatch(t *testing.T) {
	params := disclosure.DefaultParams()
	stream := goldenStream(t)
	ref := expt.NewReference(params)
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		t.Fatal(err)
	}
	const flush = 17 // deliberately not aligned with paragraph counts
	for start := 0; start < len(stream); start += flush {
		end := start + flush
		if end > len(stream) {
			end = len(stream)
		}
		items := make([]disclosure.BatchObservation, 0, end-start)
		for _, obs := range stream[start:end] {
			items = append(items, disclosure.BatchObservation{
				Seg:         obs.seg,
				Text:        obs.text,
				Granularity: obs.g,
			})
		}
		reports, err := tracker.ObserveBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		for i, obs := range stream[start:end] {
			want, err := ref.Observe(obs.seg, obs.text, obs.g)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, gotJSON := reportJSON(t, want), reportJSON(t, reports[i])
			if wantJSON != gotJSON {
				t.Fatalf("batch observation %d (%s): report diverged\nreference: %s\n   engine: %s", start+i, obs.seg, wantJSON, gotJSON)
			}
		}
	}
}
