package expt

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/segment"
)

// --- Figure 12: response-time distribution --------------------------------

// Fig12Result holds the three workflow distributions of Figure 12:
// creation-with-overlap (W1), creation-without-overlap (W2) and
// modification (W3), each over obs.LatencyBuckets.
type Fig12Result struct {
	W1, W2, W3 obs.HistogramSnapshot

	// Hashes is the fingerprint-database size the workflows ran against.
	Hashes int
}

// RunFigure12 loads the e-book corpus into a tracker and measures the
// disclosure-decision response time for the paper's three editing
// workflows. Each edit step is one tracker observation, timed end to end
// (including the decision cache, which serves the keystrokes that do not
// change the fingerprint).
func RunFigure12(scale Scale, params disclosure.Params) (Fig12Result, error) {
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return Fig12Result{}, err
	}
	books := dataset.GenerateEbooks(scale.ebookConfig())
	if err := loadBooks(tracker, books); err != nil {
		return Fig12Result{}, err
	}

	var result Fig12Result
	result.Hashes = tracker.Paragraphs().Stats().DistinctHashes

	// W1: create a new document and enter a page from an existing e-book.
	page := books[0].Page(0)
	w1 := obs.NewHistogram(obs.LatencyBuckets)
	if err := typeText(tracker, "w1doc#p0", page, 4, w1); err != nil {
		return Fig12Result{}, err
	}

	// W2: enter an article that shares no text with the corpus, matched
	// in length to the W1 page so the workflows are comparable.
	gen := dataset.NewTextGen(scale.Seed+7777, 2500)
	var freshB strings.Builder
	for len(strings.Fields(freshB.String())) < len(strings.Fields(page)) {
		freshB.WriteString(gen.Sentence(10, 14))
		freshB.WriteByte(' ')
	}
	fresh := strings.Join(strings.Fields(freshB.String())[:len(strings.Fields(page))], " ")
	w2 := obs.NewHistogram(obs.LatencyBuckets)
	if err := typeText(tracker, "w2doc#p0", fresh, 4, w2); err != nil {
		return Fig12Result{}, err
	}

	// W3: edit a previously-modified version of an e-book page to make it
	// match the original: start from a perturbed copy and restore it word
	// by word.
	original := books[0].Page(4)
	modified := gen.LightEdit(original, 0.3)
	w3 := obs.NewHistogram(obs.LatencyBuckets)
	if err := restoreText(tracker, "w3doc#p0", modified, original, w3); err != nil {
		return Fig12Result{}, err
	}

	result.W1, result.W2, result.W3 = w1.Snapshot(), w2.Snapshot(), w3.Snapshot()
	return result, nil
}

// loadBooks observes every paragraph of every book, populating the
// fingerprint database.
func loadBooks(tracker *disclosure.Tracker, books []dataset.Ebook) error {
	for b, book := range books {
		doc := segment.DocumentID(fmt.Sprintf("ebook/%03d", b))
		for i, p := range book.Paragraphs {
			seg := segment.ParSegmentID(doc, fmt.Sprintf("p%d", i))
			if _, err := tracker.ObserveParagraph(seg, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// typeText simulates typing text into one paragraph in chunks of chunk
// words, timing each disclosure decision.
func typeText(tracker *disclosure.Tracker, seg segment.ID, text string, chunk int, rec *obs.Histogram) error {
	words := strings.Fields(text)
	if chunk < 1 {
		chunk = 1
	}
	for end := chunk; end <= len(words); end += chunk {
		cur := strings.Join(words[:end], " ")
		start := time.Now()
		if _, err := tracker.ObserveParagraph(seg, cur); err != nil {
			return err
		}
		rec.Observe(time.Since(start))
	}
	return nil
}

// restoreText starts from a modified paragraph and restores it towards the
// original word by word, timing each decision (workflow W3).
func restoreText(tracker *disclosure.Tracker, seg segment.ID, modified, original string, rec *obs.Histogram) error {
	cur := strings.Fields(modified)
	orig := strings.Fields(original)
	n := len(cur)
	if len(orig) < n {
		n = len(orig)
	}
	start := time.Now()
	if _, err := tracker.ObserveParagraph(seg, strings.Join(cur, " ")); err != nil {
		return err
	}
	rec.Observe(time.Since(start))
	for i := 0; i < n; i++ {
		if cur[i] == orig[i] {
			continue
		}
		cur[i] = orig[i]
		start := time.Now()
		if _, err := tracker.ObserveParagraph(seg, strings.Join(cur, " ")); err != nil {
			return err
		}
		rec.Observe(time.Since(start))
	}
	return nil
}

// Format renders the three distributions.
func (r Fig12Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 12: Distribution of response times for disclosure decisions\n")
	fmt.Fprintf(&sb, "fingerprint database: %d distinct hashes\n", r.Hashes)
	fmt.Fprintf(&sb, "W1 creation-with-overlap:    %s\n", r.W1)
	fmt.Fprintf(&sb, "W2 creation-without-overlap: %s\n", r.W2)
	fmt.Fprintf(&sb, "W3 modification:             %s\n", r.W3)
	for _, w := range []struct {
		name string
		h    obs.HistogramSnapshot
	}{{"W1", r.W1}, {"W2", r.W2}, {"W3", r.W3}} {
		sb.WriteString(w.name + " CDF:\n")
		for _, p := range w.h.CDF() {
			fmt.Fprintf(&sb, "%12v  %6.4f\n", p.Value, p.Fraction)
		}
	}
	return sb.String()
}

// --- Figure 13: scalability with database size -----------------------------

// Fig13Point is one (hashes, P95) sample.
type Fig13Point struct {
	// Hashes is the distinct-hash count in the database.
	Hashes int

	// ApproxMB is the database's rough memory footprint.
	ApproxMB float64

	// P95 is the 95th-percentile response time for pasting a 500-character
	// paragraph from a loaded book into an empty document, as the upper
	// bound of its obs.LatencyBuckets bucket.
	P95 time.Duration
}

// Fig13Result is the scalability curve.
type Fig13Result struct {
	Points []Fig13Point
}

// RunFigure13 loads the e-book corpus incrementally in steps and, after
// each step, measures the paste-paragraph response time (the paper's
// 500-character paste probe), reporting the 95th percentile.
func RunFigure13(scale Scale, params disclosure.Params, steps, probes int) (Fig13Result, error) {
	if steps < 1 {
		steps = 1
	}
	if probes < 1 {
		probes = 10
	}
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return Fig13Result{}, err
	}
	books := dataset.GenerateEbooks(scale.ebookConfig())

	var result Fig13Result
	perStep := (len(books) + steps - 1) / steps
	loaded := 0
	for step := 0; step < steps && loaded < len(books); step++ {
		end := loaded + perStep
		if end > len(books) {
			end = len(books)
		}
		if err := loadBooks(tracker, books[loaded:end]); err != nil {
			return Fig13Result{}, err
		}
		loaded = end

		// Settle the heap after bulk loading so step boundaries do not
		// charge GC debt to the first probes, then warm up the caches.
		runtime.GC()
		rec := obs.NewHistogram(obs.LatencyBuckets)
		for warm := 0; warm < 8; warm++ {
			seg := segment.ID(fmt.Sprintf("warm%d-%d#p0", step, warm))
			if _, err := tracker.ObserveParagraph(seg, books[0].Page(warm)); err != nil {
				return Fig13Result{}, err
			}
			tracker.Forget(seg, segment.GranularityParagraph)
		}
		for probe := 0; probe < probes; probe++ {
			// Probe pages always come from the first book so every step
			// measures the same workload against a larger database.
			book := books[0]
			offset := (probe * 13) % max(1, len(book.Paragraphs)-2)
			text := book.Page(offset)
			if len(text) > 500 {
				text = text[:500]
			}
			seg := segment.ID(fmt.Sprintf("probe%d-%d#p0", step, probe))
			start := time.Now()
			if _, err := tracker.ObserveParagraph(seg, text); err != nil {
				return Fig13Result{}, err
			}
			rec.Observe(time.Since(start))
			tracker.Forget(seg, segment.GranularityParagraph)
		}
		stats := tracker.Paragraphs().Stats()
		result.Points = append(result.Points, Fig13Point{
			Hashes:   stats.DistinctHashes,
			ApproxMB: float64(stats.ApproxBytes) / (1 << 20),
			P95:      rec.Snapshot().Quantile(0.95),
		})
	}
	return result, nil
}

// Format renders the scalability curve.
func (r Fig13Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 13: Response time vs size of the hashes database\n")
	sb.WriteString("   hashes   approx-MB        P95\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%9d  %9.1f  %9v\n", p.Hashes, p.ApproxMB, p.P95)
	}
	return sb.String()
}
