package browserflow

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§6). Each benchmark reports the headline metric(s) of its
// table/figure through b.ReportMetric, so `go test -bench=. -benchmem`
// yields the same rows/series the paper plots; cmd/bfbench prints the full
// series. Scales are laptop-sized here — use `bfbench -scale paper` for
// corpus sizes approaching Table 1.

import (
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/expt"
	"github.com/lsds/browserflow/internal/fingerprint"
)

// benchScale keeps -bench=. runs fast while preserving shapes.
func benchScale() expt.Scale {
	return expt.Scale{
		Seed:              1,
		Revisions:         60,
		ArticleParagraphs: 12,
		Books:             3,
		BookMinBytes:      30 << 10,
		BookMaxBytes:      60 << 10,
	}
}

// BenchmarkTable1Datasets regenerates the Table 1 dataset summary.
func BenchmarkTable1Datasets(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		r := expt.RunTable1(benchScale())
		rows = len(r.Rows)
	}
	b.ReportMetric(float64(rows), "table-rows")
}

// BenchmarkFigure8LengthChange regenerates the article length-change CDF.
func BenchmarkFigure8LengthChange(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r := expt.RunFigure8(benchScale())
		median = r.Points[len(r.Points)/2].RelChange
	}
	b.ReportMetric(median, "median-rel-change")
}

// BenchmarkFigure9aStableArticles regenerates the stable-article
// disclosure curves; the reported metric is the mean final disclosure
// percentage (paper: stays near 100%).
func BenchmarkFigure9aStableArticles(b *testing.B) {
	benchFigure9(b, true)
}

// BenchmarkFigure9bVolatileArticles regenerates the volatile-article
// curves (paper: decays towards zero).
func BenchmarkFigure9bVolatileArticles(b *testing.B) {
	benchFigure9(b, false)
}

func benchFigure9(b *testing.B, stable bool) {
	b.Helper()
	var finalPct float64
	for i := 0; i < b.N; i++ {
		r, err := expt.RunFigure9(benchScale(), stable, 6, fingerprint.DefaultConfig(), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		finalPct = 0
		for _, s := range r.Series {
			finalPct += s.FinalPct()
		}
		finalPct /= float64(len(r.Series))
	}
	b.ReportMetric(finalPct, "final-disclosing-%")
}

// BenchmarkFigure10Manuals regenerates the manuals comparison; the metric
// is the mean absolute gap between BrowserFlow and ground truth.
func BenchmarkFigure10Manuals(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := expt.RunFigure10(benchScale(), fingerprint.DefaultConfig(), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		var n int
		for _, c := range r.Chapters {
			for _, row := range c.Rows {
				d := row.BrowserFlowPct - row.GroundTruthPct
				if d < 0 {
					d = -d
				}
				total += d
				n++
			}
		}
		gap = total / float64(n)
	}
	b.ReportMetric(gap, "mean-gap-pct")
}

// BenchmarkFigure11ThresholdSweep regenerates the Tpar sweep; the metric
// is the detected/ground-truth ratio at the paper's default Tpar = 0.5.
func BenchmarkFigure11ThresholdSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := expt.RunFigure11(benchScale(), fingerprint.DefaultConfig(), 0.1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.RatioAt(0.5)
	}
	b.ReportMetric(ratio, "ratio-at-0.5")
}

// BenchmarkFigure12ResponseTime regenerates the three editing workflows;
// metrics are the per-workflow P99 in milliseconds (paper: 99% < 200 ms).
func BenchmarkFigure12ResponseTime(b *testing.B) {
	var r expt.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = expt.RunFigure12(benchScale(), disclosure.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.W1.Quantile(0.99).Microseconds())/1000, "w1-p99-ms")
	b.ReportMetric(float64(r.W2.Quantile(0.99).Microseconds())/1000, "w2-p99-ms")
	b.ReportMetric(float64(r.W3.Quantile(0.99).Microseconds())/1000, "w3-p99-ms")
}

// BenchmarkFigure13Scalability regenerates the database-size scaling
// curve; the metric is the P95 growth factor from the smallest to the
// largest database (paper: sub-linear in hash count).
func BenchmarkFigure13Scalability(b *testing.B) {
	var growth, hashGrowth float64
	for i := 0; i < b.N; i++ {
		r, err := expt.RunFigure13(benchScale(), disclosure.DefaultParams(), 3, 6)
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		if first.P95 > 0 {
			growth = float64(last.P95) / float64(first.P95)
		}
		if first.Hashes > 0 {
			hashGrowth = float64(last.Hashes) / float64(first.Hashes)
		}
	}
	b.ReportMetric(growth, "p95-growth")
	b.ReportMetric(hashGrowth, "hash-growth")
}

// BenchmarkAblationCache measures the decision cache's effect on typing
// latency (DESIGN.md ablation; backs the Figure 12 <30 ms mass).
func BenchmarkAblationCache(b *testing.B) {
	var r expt.AblationCacheResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = expt.RunAblationCache(benchScale(), disclosure.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.HitRate, "hit-rate")
	b.ReportMetric(float64(r.HitMedian.Nanoseconds())/1e6, "hit-p50-ms")
	b.ReportMetric(float64(r.MissMedian.Nanoseconds())/1e6, "miss-p50-ms")
}

// BenchmarkAblationAuthoritative measures the Figure 7 overlap false
// positives with and without authoritative fingerprints.
func BenchmarkAblationAuthoritative(b *testing.B) {
	var r expt.AblationAuthoritativeResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = expt.RunAblationAuthoritative(benchScale(), disclosure.DefaultParams(), 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FalsePositivesWith), "fp-with-auth")
	b.ReportMetric(float64(r.FalsePositivesWithout), "fp-without-auth")
}

// BenchmarkAblationWinnowParams sweeps the fingerprinting parameter grid.
func BenchmarkAblationWinnowParams(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		r, err := expt.RunAblationWinnowParams(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(r.Points)
	}
	b.ReportMetric(float64(points), "grid-points")
}

// BenchmarkBaselineComparison replays the §2.2 exfiltration scenarios
// against BrowserFlow and the network-DLP baseline; metrics are the
// detection counts out of 3 scenarios.
func BenchmarkBaselineComparison(b *testing.B) {
	var bf, dlp int
	for i := 0; i < b.N; i++ {
		r, err := expt.RunBaselineComparison(benchScale(), disclosure.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		bf, dlp = 0, 0
		for _, s := range r.Scenarios {
			if s.BrowserFlow {
				bf++
			}
			if s.NetworkDLP {
				dlp++
			}
		}
	}
	b.ReportMetric(float64(bf), "browserflow-detected")
	b.ReportMetric(float64(dlp), "networkdlp-detected")
}

// BenchmarkOrgSim runs the end-to-end organisation simulation; metrics are
// precision and recall against the simulation's ground truth.
func BenchmarkOrgSim(b *testing.B) {
	var r expt.OrgSimResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := expt.DefaultOrgSimConfig()
		cfg.Events = 200
		r, err = expt.RunOrgSim(cfg, disclosure.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Precision(), "precision")
	b.ReportMetric(r.Recall(), "recall")
	b.ReportMetric(r.DetectableRecall(), "detectable-recall")
}

// BenchmarkMiddlewareObserve measures the end-to-end public-API
// observation path with a populated database.
func BenchmarkMiddlewareObserve(b *testing.B) {
	mw, err := New(DefaultConfig(), paperServices()...)
	if err != nil {
		b.Fatal(err)
	}
	base := strings.Repeat("Sensitive quarterly figures and staffing plans for the next two fiscal years. ", 4)
	for i := 0; i < 100; i++ {
		seg := SegmentID("wiki/seed#" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
		if _, err := mw.ObserveParagraph("wiki", seg, base+string(rune('a'+i%26))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mw.ObserveParagraph("docs", "docs/probe#p0", base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiddlewareCheckText measures the form-interception path.
func BenchmarkMiddlewareCheckText(b *testing.B) {
	mw, err := New(DefaultConfig(), paperServices()...)
	if err != nil {
		b.Fatal(err)
	}
	text := strings.Repeat("Authoritative source paragraph that the probe text fully contains today. ", 4)
	if _, err := mw.ObserveParagraph("wiki", "wiki/src#p0", text); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mw.CheckText(text, "docs"); err != nil {
			b.Fatal(err)
		}
	}
}
