package expt

import (
	"fmt"
	"strings"
	"time"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/segment"
)

// The ablation experiments quantify the design choices DESIGN.md calls
// out; they have no direct counterpart figure in the paper but back its
// §4.2–4.3 arguments with measurements.

// --- decision cache ---------------------------------------------------------

// AblationCacheResult compares typing latency with the decision cache on
// and off.
type AblationCacheResult struct {
	WithCache    obs.HistogramSnapshot
	WithoutCache obs.HistogramSnapshot

	// HitRate is the cache hit fraction during the cached run.
	HitRate float64

	// HitMedian and MissMedian break the cached run down per request:
	// hits skip the disclosure calculation entirely (the <30 ms mass of
	// Figure 12), misses pay for Algorithm 1. Medians are reported
	// because GC pauses skew means at these latencies; each is the upper
	// bound of its obs.LatencyBuckets bucket.
	HitMedian  time.Duration
	MissMedian time.Duration
}

// RunAblationCache types a page of an existing book into a new paragraph
// word by word, with and without the decision cache.
func RunAblationCache(scale Scale, params disclosure.Params) (AblationCacheResult, error) {
	var result AblationCacheResult
	books := dataset.GenerateEbooks(scale.ebookConfig())

	page := books[0].Page(0)

	run := func(disable bool) (obs.HistogramSnapshot, float64, time.Duration, time.Duration, error) {
		p := params
		p.DisableCache = disable
		tracker, err := disclosure.NewTracker(p)
		if err != nil {
			return obs.HistogramSnapshot{}, 0, 0, 0, err
		}
		// Seed small "popular passage" paragraphs covering the page
		// *before* the books load, so the typed text overlaps many
		// distinct authoritative sources — the case the paper identifies
		// as the performance driver ("how many popular text passages
		// appear in multiple different paragraphs").
		words := strings.Fields(page)
		const chunkWords = 12
		for c := 0; c*chunkWords < len(words); c++ {
			end := (c + 1) * chunkWords
			if end > len(words) {
				end = len(words)
			}
			seg := segment.ID(fmt.Sprintf("popular#p%d", c))
			if _, err := tracker.ObserveParagraph(seg, strings.Join(words[c*chunkWords:end], " ")); err != nil {
				return obs.HistogramSnapshot{}, 0, 0, 0, err
			}
		}
		if err := loadBooks(tracker, books); err != nil {
			return obs.HistogramSnapshot{}, 0, 0, 0, err
		}

		rec := obs.NewHistogram(obs.LatencyBuckets)
		hitRec, missRec := obs.NewHistogram(obs.LatencyBuckets), obs.NewHistogram(obs.LatencyBuckets)
		hits, total := 0, 0
		cur := ""
		for _, w := range words {
			if cur != "" {
				cur += " "
			}
			cur += w
			start := time.Now()
			report, err := tracker.ObserveParagraph("cache-probe#p0", cur)
			elapsed := time.Since(start)
			if err != nil {
				return obs.HistogramSnapshot{}, 0, 0, 0, err
			}
			rec.Observe(elapsed)
			total++
			if report.CacheHit {
				hits++
				hitRec.Observe(elapsed)
			} else {
				missRec.Observe(elapsed)
			}
		}
		var rate float64
		if total > 0 {
			rate = float64(hits) / float64(total)
		}
		return rec.Snapshot(), rate, hitRec.Snapshot().Quantile(0.5), missRec.Snapshot().Quantile(0.5), nil
	}

	var err error
	if result.WithCache, result.HitRate, result.HitMedian, result.MissMedian, err = run(false); err != nil {
		return AblationCacheResult{}, err
	}
	if result.WithoutCache, _, _, _, err = run(true); err != nil {
		return AblationCacheResult{}, err
	}
	return result, nil
}

// Format renders the comparison.
func (r AblationCacheResult) Format() string {
	return fmt.Sprintf("Ablation: decision cache\nwith cache:    %s\n  hit rate %.2f, median hit %v, median miss %v\nwithout cache: %s\n",
		r.WithCache, r.HitRate, r.HitMedian, r.MissMedian, r.WithoutCache)
}

// --- authoritative fingerprints ---------------------------------------------

// AblationAuthoritativeResult counts Figure 7-style misattributions with
// the authoritative adjustment on and off.
type AblationAuthoritativeResult struct {
	// Scenarios is the number of A/B/C overlap chains evaluated.
	Scenarios int

	// FalsePositivesWith is the misattribution count with authoritative
	// fingerprints (should be 0).
	FalsePositivesWith int

	// FalsePositivesWithout is the count with plain pairwise containment.
	FalsePositivesWithout int
}

// RunAblationAuthoritative replays N independent overlap chains: A holds a
// paragraph, B holds a superset, C copies the shared text. Blaming B is a
// false positive because all sensitive content in C originates from A.
func RunAblationAuthoritative(scale Scale, params disclosure.Params, scenarios int) (AblationAuthoritativeResult, error) {
	if scenarios < 1 {
		scenarios = 10
	}
	result := AblationAuthoritativeResult{Scenarios: scenarios}

	run := func(disable bool) (int, error) {
		p := params
		p.DisableAuthoritative = disable
		tracker, err := disclosure.NewTracker(p)
		if err != nil {
			return 0, err
		}
		gen := dataset.NewTextGen(scale.Seed+555, 3000)
		falsePositives := 0
		for i := 0; i < scenarios; i++ {
			shared := gen.Paragraph(6, 9)
			segA := segment.ID(fmt.Sprintf("A%d#p0", i))
			segB := segment.ID(fmt.Sprintf("B%d#p0", i))
			segC := segment.ID(fmt.Sprintf("C%d#p0", i))
			if _, err := tracker.ObserveParagraph(segA, shared); err != nil {
				return 0, err
			}
			if _, err := tracker.ObserveParagraph(segB, shared+" "+gen.Sentence(10, 14)); err != nil {
				return 0, err
			}
			report, err := tracker.ObserveParagraph(segC, shared)
			if err != nil {
				return 0, err
			}
			for _, src := range report.Sources {
				if src.Seg == segB {
					falsePositives++
				}
			}
		}
		return falsePositives, nil
	}

	var err error
	if result.FalsePositivesWith, err = run(false); err != nil {
		return AblationAuthoritativeResult{}, err
	}
	if result.FalsePositivesWithout, err = run(true); err != nil {
		return AblationAuthoritativeResult{}, err
	}
	return result, nil
}

// Format renders the comparison.
func (r AblationAuthoritativeResult) Format() string {
	return fmt.Sprintf("Ablation: authoritative fingerprints (%d overlap chains)\nfalse positives with authoritative:    %d\nfalse positives without (pairwise):    %d\n",
		r.Scenarios, r.FalsePositivesWith, r.FalsePositivesWithout)
}

// --- winnowing parameters ----------------------------------------------------

// WinnowParamPoint is one (n-gram, window) grid cell.
type WinnowParamPoint struct {
	NGram  int
	Window int

	// HashesPerKB is the fingerprint density.
	HashesPerKB float64

	// EditContainment is the containment retained after a 10% word edit —
	// higher means more robust tracking.
	EditContainment float64
}

// AblationWinnowResult is the parameter grid.
type AblationWinnowResult struct {
	Points []WinnowParamPoint
}

// RunAblationWinnowParams sweeps n-gram and window sizes, measuring the
// density/robustness trade-off that motivates the paper's 15/30 choice.
func RunAblationWinnowParams(scale Scale) (AblationWinnowResult, error) {
	gen := dataset.NewTextGen(scale.Seed+999, 2000)
	paragraph := gen.Paragraph(30, 30)
	edited := gen.LightEdit(paragraph, 0.1)

	var result AblationWinnowResult
	for _, ngram := range []int{8, 15, 25} {
		for _, window := range []int{10, 30, 60} {
			cfg := fingerprint.Config{NGram: ngram, Window: window}
			fa, err := fingerprint.Compute(paragraph, cfg)
			if err != nil {
				return AblationWinnowResult{}, err
			}
			fb, err := fingerprint.Compute(edited, cfg)
			if err != nil {
				return AblationWinnowResult{}, err
			}
			result.Points = append(result.Points, WinnowParamPoint{
				NGram:           ngram,
				Window:          window,
				HashesPerKB:     float64(fa.Len()) / (float64(len(paragraph)) / 1024),
				EditContainment: fa.Containment(fb),
			})
		}
	}
	return result, nil
}

// Format renders the grid.
func (r AblationWinnowResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Ablation: winnowing parameters (density vs robustness)\n")
	sb.WriteString("ngram window  hashes/KB  containment-after-10%-edit\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%5d %6d %10.1f  %10.3f\n", p.NGram, p.Window, p.HashesPerKB, p.EditContainment)
	}
	return sb.String()
}
