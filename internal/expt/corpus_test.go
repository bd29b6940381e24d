package expt

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/disclosure"
)

// TestRunCorpusSmall exercises the full corpus pipeline — streamed load,
// per-step measurement, capture/recover and bootstrap — at a CI-friendly
// scale.
func TestRunCorpusSmall(t *testing.T) {
	cfg := CorpusConfig{
		Seed:       7,
		StepHashes: []int{20_000, 40_000},
		Probes:     2,
		Dir:        t.TempDir(),
	}
	r, err := RunCorpus(cfg, disclosure.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(r.Steps))
	}
	prev := 0
	for _, s := range r.Steps {
		if s.DistinctHashes < s.TargetHashes {
			t.Errorf("step %d: distinct %d below target", s.TargetHashes, s.DistinctHashes)
		}
		if s.DistinctHashes <= prev {
			t.Errorf("step %d: distinct hashes did not grow (%d after %d)", s.TargetHashes, s.DistinctHashes, prev)
		}
		prev = s.DistinctHashes
		if s.HeapBytesPerHash <= 0 || s.ApproxBytesPerHash <= 0 {
			t.Errorf("step %d: missing bytes/hash (heap %.1f approx %.1f)", s.TargetHashes, s.HeapBytesPerHash, s.ApproxBytesPerHash)
		}
		if s.ObserveNsPerOp <= 0 {
			t.Errorf("step %d: missing observe latency", s.TargetHashes)
		}
		if s.SnapshotBytes <= 0 || s.RecoverSeconds <= 0 || s.BootstrapSeconds <= 0 {
			t.Errorf("step %d: missing checkpoint timings: %+v", s.TargetHashes, s)
		}
	}
	if out := r.Format(); !strings.Contains(out, "Corpus scale") {
		t.Errorf("Format missing header:\n%s", out)
	}
}

// TestRunCorpusRSSBudget proves the budget is a hard failure.
func TestRunCorpusRSSBudget(t *testing.T) {
	if _, ok := processRSSMB(); !ok {
		t.Skip("no /proc/self/status on this platform")
	}
	cfg := CorpusConfig{
		Seed:        7,
		StepHashes:  []int{20_000},
		Probes:      1,
		RSSBudgetMB: 1, // any real process exceeds 1 MB
		Dir:         t.TempDir(),
	}
	if _, err := RunCorpus(cfg, disclosure.DefaultParams()); err == nil {
		t.Fatal("expected RSS budget violation, got nil error")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFormatCorpusDelta(t *testing.T) {
	prev := CorpusResult{Steps: []CorpusStep{{TargetHashes: 1000, HeapBytesPerHash: 100, ObserveNsPerOp: 2000, RecoverSeconds: 1.0, BootstrapSeconds: 0.5}}}
	cur := CorpusResult{Steps: []CorpusStep{{TargetHashes: 1000, HeapBytesPerHash: 50, ObserveNsPerOp: 2200, RecoverSeconds: 0.2, BootstrapSeconds: 0.4}}}
	out := FormatCorpusDelta(prev, cur)
	for _, want := range []string{"B/hash", "-50.0%", "+10.0%", "-80.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta output missing %q:\n%s", want, out)
		}
	}
	if out := FormatCorpusDelta(CorpusResult{}, cur); !strings.Contains(out, "no matching steps") {
		t.Errorf("empty prev should say no matching steps:\n%s", out)
	}

	// The committed recording predates the removal of the legacy-JSON
	// columns; its extra fields must be ignored, not rejected.
	raw, err := os.ReadFile("../../BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded CorpusResult
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatalf("BENCH_7.json no longer parses: %v", err)
	}
	if out := FormatCorpusDelta(recorded, recorded); !strings.Contains(out, "recover s") {
		t.Errorf("delta against the recorded BENCH_7.json lost its rows:\n%s", out)
	}
}
