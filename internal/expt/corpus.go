package expt

// Corpus-scale index benchmark backing BENCH_7.json (§6.2: the paper loads
// 180 e-books, ~10M distinct hashes, into the fingerprint database). The
// run streams synthetic e-books through the path that deploys —
// policy.Engine.ObserveEdit into one registered service, so every paragraph
// is fingerprinted, labelled, evaluated and indexed as a live edit would be
// (BENCH_7.json was recorded through bare index updates, which is how it
// read 42 B/hash while the engine cost 105) — and pauses at each target
// hash count (1M/5M/10M by default) to measure:
//
//   - memory bytes per distinct hash (GC'd heap delta over the empty
//     engine, plus the index's own ApproxBytes model),
//   - steady-state observe latency at that database size,
//   - checkpoint capture / mmap recovery wall time, and
//   - replica bootstrap time (apply a received snapshot blob and persist
//     it verbatim).
//
// An optional hard RSS budget turns the run into a regression gate:
// `make check` replays the 1M step and fails if the process exceeds the
// budget.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// CorpusConfig controls the corpus-scale benchmark.
type CorpusConfig struct {
	// Seed drives the e-book generator.
	Seed int64

	// StepHashes lists the distinct-hash targets, ascending. The corpus
	// grows through them in one pass; each step is measured when its
	// target is first reached.
	StepHashes []int

	// Probes is how many distinct ~2KB pages rotate through the observe
	// benchmark at each step.
	Probes int

	// RSSBudgetMB, when positive, fails the run if the process RSS
	// (after returning freed memory to the OS) exceeds the budget at the
	// end of any step.
	RSSBudgetMB int

	// Dir is the scratch directory for checkpoint files; empty uses a
	// temp directory that is removed afterwards.
	Dir string

	// Logf, when set, receives progress lines (books ingested, steps
	// reached) during the long load phase.
	Logf func(format string, args ...interface{})
}

// DefaultCorpusConfig returns the 1M/5M/10M ladder of the scalability
// acceptance runs.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		Seed:       42,
		StepHashes: []int{1_000_000, 5_000_000, 10_000_000},
		Probes:     8,
	}
}

// CorpusStep is one measured database size.
type CorpusStep struct {
	TargetHashes   int `json:"targetHashes"`
	DistinctHashes int `json:"distinctHashes"`
	Postings       int `json:"postings"`
	Segments       int `json:"segments"`
	CorpusBytes    int `json:"corpusBytes"`

	LoadSeconds float64 `json:"loadSeconds"`

	HeapBytesPerHash   float64 `json:"heapBytesPerHash"`
	ApproxBytesPerHash float64 `json:"approxBytesPerHash"`

	ObserveNsPerOp     float64 `json:"observeNsPerOp"`
	ObserveAllocsPerOp int64   `json:"observeAllocsPerOp"`

	SnapshotBytes  int     `json:"snapshotBytes"`
	CaptureSeconds float64 `json:"captureSeconds"`
	// RecoverSeconds is a cold recovery from disk through the mmap path;
	// BootstrapSeconds applies an in-memory snapshot blob and persists it
	// verbatim, the replica bootstrap sequence.
	RecoverSeconds   float64 `json:"recoverSeconds"`
	BootstrapSeconds float64 `json:"bootstrapSeconds"`

	RSSMB float64 `json:"rssMb,omitempty"`
}

// CorpusResult is the full BENCH_7.json payload.
type CorpusResult struct {
	GOMAXPROCS  int          `json:"gomaxprocs"`
	RSSBudgetMB int          `json:"rssBudgetMb,omitempty"`
	Steps       []CorpusStep `json:"steps"`
}

// corpusService is the one service the corpus is ingested into.
const corpusService = "corpus"

// errCorpusDone stops e-book generation once the last step is measured.
var errCorpusDone = errors.New("corpus: all steps measured")

// RunCorpus executes the corpus-scale benchmark.
func RunCorpus(cfg CorpusConfig, params disclosure.Params) (CorpusResult, error) {
	if len(cfg.StepHashes) == 0 {
		return CorpusResult{}, fmt.Errorf("corpus: no step targets")
	}
	for i := 1; i < len(cfg.StepHashes); i++ {
		if cfg.StepHashes[i] <= cfg.StepHashes[i-1] {
			return CorpusResult{}, fmt.Errorf("corpus: step targets must ascend")
		}
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 8
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "bfcorpus")
		if err != nil {
			return CorpusResult{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return CorpusResult{}, err
	}
	registry := tdm.NewRegistry(audit.NewLog())
	if err := registry.RegisterService(corpusService, tdm.NewTagSet("tc"), tdm.NewTagSet("tc")); err != nil {
		return CorpusResult{}, err
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		return CorpusResult{}, err
	}
	baseHeap := heapAlloc()

	result := CorpusResult{GOMAXPROCS: runtime.GOMAXPROCS(0), RSSBudgetMB: cfg.RSSBudgetMB}

	maxTarget := cfg.StepHashes[len(cfg.StepHashes)-1]
	ebooks := dataset.EbookConfig{
		Seed:  cfg.Seed,
		Books: maxTarget/15_000 + 8, // generous: generation stops at the last target
		// Book sizes around the paper's median, sharing popular passages.
		MinBytes:        400 << 10,
		MaxBytes:        800 << 10,
		PopularPassages: 8,
	}

	var (
		probePages  []string
		corpusBytes int
		books       int
		step        int
		loadStart   = time.Now()
	)
	pars := tracker.Paragraphs()
	genErr := dataset.GenerateEbooksFunc(ebooks, func(book dataset.Ebook) error {
		for i, p := range book.Paragraphs {
			if _, err := engine.ObserveEdit(segment.ID(fmt.Sprintf("%s#p%d", book.Title, i)), corpusService, p); err != nil {
				return err
			}
		}
		corpusBytes += book.SizeBytes()
		books++
		if len(probePages) < cfg.Probes {
			probePages = append(probePages, book.Page(books*3))
		}
		if books%32 == 0 {
			logf("corpus: %d books, %d distinct hashes", books, pars.Stats().DistinctHashes)
		}
		for step < len(cfg.StepHashes) && pars.Stats().DistinctHashes >= cfg.StepHashes[step] {
			s, err := measureCorpusStep(cfg, params, engine, dir, cfg.StepHashes[step], corpusBytes, time.Since(loadStart), baseHeap, probePages)
			if err != nil {
				return err
			}
			logf("corpus: step %d hashes done (%.1f B/hash heap, observe %.0f ns/op)", s.TargetHashes, s.HeapBytesPerHash, s.ObserveNsPerOp)
			result.Steps = append(result.Steps, s)
			step++
			loadStart = time.Now() // next step times only its incremental load
		}
		if step == len(cfg.StepHashes) {
			return errCorpusDone
		}
		return nil
	})
	if genErr != nil && !errors.Is(genErr, errCorpusDone) {
		return CorpusResult{}, genErr
	}
	if step < len(cfg.StepHashes) {
		return CorpusResult{}, fmt.Errorf("corpus: exhausted %d books at %d distinct hashes, before the %d target",
			books, pars.Stats().DistinctHashes, cfg.StepHashes[step])
	}
	return result, nil
}

// measureCorpusStep runs the per-step measurements against the live
// engine.
func measureCorpusStep(cfg CorpusConfig, params disclosure.Params, engine *policy.Engine, dir string, target, corpusBytes int, load time.Duration, baseHeap uint64, probePages []string) (CorpusStep, error) {
	tracker, registry := engine.Tracker(), engine.Registry()
	stats := tracker.Paragraphs().Stats()
	s := CorpusStep{
		TargetHashes:   target,
		DistinctHashes: stats.DistinctHashes,
		Postings:       stats.Postings,
		Segments:       stats.Segments,
		CorpusBytes:    corpusBytes,
		LoadSeconds:    load.Seconds(),
	}
	if heap := heapAlloc(); heap > baseHeap && stats.DistinctHashes > 0 {
		s.HeapBytesPerHash = float64(heap-baseHeap) / float64(stats.DistinctHashes)
	}
	if stats.DistinctHashes > 0 {
		s.ApproxBytesPerHash = float64(stats.ApproxBytes) / float64(stats.DistinctHashes)
	}

	// Observe latency at this database size: rotating probe pages under
	// one segment, so every iteration is a decision-cache miss running
	// Algorithm 1 plus a (mostly no-op) index update against the full
	// corpus.
	if len(probePages) > 0 {
		var obsErr error
		res := testing.Benchmark(func(b *testing.B) {
			seg := segment.ID("corpus/probe#p0")
			for _, p := range probePages {
				if _, err := engine.ObserveEdit(seg, corpusService, p); err != nil {
					obsErr = err
					b.FailNow()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.ObserveEdit(seg, corpusService, probePages[i%len(probePages)]); err != nil {
					obsErr = err
					b.FailNow()
				}
			}
		})
		if obsErr != nil {
			return CorpusStep{}, fmt.Errorf("corpus observe at %d: %w", target, obsErr)
		}
		s.ObserveNsPerOp = float64(res.NsPerOp())
		s.ObserveAllocsPerOp = res.AllocsPerOp()
	}

	// Checkpoint capture + mmap recovery from disk. The observe benchmark
	// above added the probe segment, so re-count for the recovery check.
	wantDistinct := tracker.Paragraphs().Stats().DistinctHashes
	start := time.Now()
	blob, err := store.CaptureBytes(tracker, registry, 1)
	if err != nil {
		return CorpusStep{}, fmt.Errorf("corpus capture at %d: %w", target, err)
	}
	s.CaptureSeconds = time.Since(start).Seconds()
	s.SnapshotBytes = len(blob)

	ckptDir := filepath.Join(dir, fmt.Sprintf("step-%d", target))
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return CorpusStep{}, err
	}
	fs := wal.OSFS{}
	if err := store.SaveCheckpointBytes(fs, filepath.Join(ckptDir, store.CheckpointName(1)), blob, nil); err != nil {
		return CorpusStep{}, err
	}
	cold, err := disclosure.NewTracker(params)
	if err != nil {
		return CorpusStep{}, err
	}
	coldReg := tdm.NewRegistry(audit.NewLog())
	start = time.Now()
	if _, _, _, err := store.RecoverNewestCheckpoint(fs, ckptDir, nil, cold, coldReg, nil); err != nil {
		return CorpusStep{}, fmt.Errorf("corpus recover at %d: %w", target, err)
	}
	s.RecoverSeconds = time.Since(start).Seconds()
	if got := cold.Paragraphs().Stats().DistinctHashes; got != wantDistinct {
		return CorpusStep{}, fmt.Errorf("corpus recover at %d: %d distinct hashes, want %d", target, got, wantDistinct)
	}

	// Replica bootstrap: apply the received blob and persist it verbatim.
	boot, err := disclosure.NewTracker(params)
	if err != nil {
		return CorpusStep{}, err
	}
	bootReg := tdm.NewRegistry(audit.NewLog())
	start = time.Now()
	if _, err := store.RestoreBytes("primary snapshot", blob, boot, bootReg); err != nil {
		return CorpusStep{}, fmt.Errorf("corpus bootstrap at %d: %w", target, err)
	}
	if err := store.SaveCheckpointBytes(fs, filepath.Join(ckptDir, store.CheckpointName(2)), blob, nil); err != nil {
		return CorpusStep{}, err
	}
	s.BootstrapSeconds = time.Since(start).Seconds()
	boot, bootReg = nil, nil

	// Drop the step's scratch state and return freed spans to the OS
	// before the budget check, so RSS reflects the resident index, not
	// transient measurement garbage.
	cold, coldReg = nil, nil
	debug.FreeOSMemory()
	if rss, ok := processRSSMB(); ok {
		s.RSSMB = rss
		if cfg.RSSBudgetMB > 0 && rss > float64(cfg.RSSBudgetMB) {
			return CorpusStep{}, fmt.Errorf("corpus: RSS %.0f MB exceeds budget %d MB at %d hashes", rss, cfg.RSSBudgetMB, target)
		}
	} else if cfg.RSSBudgetMB > 0 {
		return CorpusStep{}, fmt.Errorf("corpus: RSS budget set but /proc/self/status is unavailable")
	}
	return s, nil
}

// heapAlloc returns the live heap after a full GC.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// processRSSMB reads VmRSS from /proc/self/status; ok is false on
// platforms without procfs.
func processRSSMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// Format renders the result as the table bfbench prints.
func (r CorpusResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Corpus scale (GOMAXPROCS=%d", r.GOMAXPROCS)
	if r.RSSBudgetMB > 0 {
		fmt.Fprintf(&b, ", RSS budget %d MB", r.RSSBudgetMB)
	}
	b.WriteString(")\n\n")
	fmt.Fprintf(&b, "  %10s %10s %9s %8s %9s %9s %9s %9s %9s %8s\n",
		"hashes", "postings", "B/hash", "approx", "obs ns", "load s", "capt s", "recov s", "boot s", "RSS MB")
	for _, s := range r.Steps {
		rss := "-"
		if s.RSSMB > 0 {
			rss = fmt.Sprintf("%.0f", s.RSSMB)
		}
		fmt.Fprintf(&b, "  %10d %10d %9.1f %8.1f %9.0f %9.1f %9.2f %9.2f %9.2f %8s\n",
			s.DistinctHashes, s.Postings, s.HeapBytesPerHash, s.ApproxBytesPerHash,
			s.ObserveNsPerOp, s.LoadSeconds, s.CaptureSeconds, s.RecoverSeconds,
			s.BootstrapSeconds, rss)
	}
	return b.String()
}

// FormatCorpusDelta renders a benchstat-style comparison of two corpus
// runs, matching steps by target hash count. Negative deltas are
// improvements for every metric shown.
func FormatCorpusDelta(prev, cur CorpusResult) string {
	prevBy := make(map[int]CorpusStep, len(prev.Steps))
	for _, s := range prev.Steps {
		prevBy[s.TargetHashes] = s
	}
	var b strings.Builder
	b.WriteString("Delta vs previous BENCH_7.json (negative = improvement):\n")
	fmt.Fprintf(&b, "  %10s %-14s %12s %12s %9s\n", "hashes", "metric", "old", "new", "delta")
	wrote := false
	for _, s := range cur.Steps {
		p, ok := prevBy[s.TargetHashes]
		if !ok {
			continue
		}
		wrote = true
		row := func(metric string, old, new float64, format string) {
			if old == 0 {
				return
			}
			fmt.Fprintf(&b, "  %10d %-14s %12s %12s %+8.1f%%\n",
				s.TargetHashes, metric,
				fmt.Sprintf(format, old), fmt.Sprintf(format, new),
				(new-old)/old*100)
		}
		row("B/hash", p.HeapBytesPerHash, s.HeapBytesPerHash, "%.1f")
		row("observe ns/op", p.ObserveNsPerOp, s.ObserveNsPerOp, "%.0f")
		row("recover s", p.RecoverSeconds, s.RecoverSeconds, "%.3f")
		row("bootstrap s", p.BootstrapSeconds, s.BootstrapSeconds, "%.3f")
	}
	if !wrote {
		b.WriteString("  (no matching steps)\n")
	}
	return b.String()
}
