// Command bench is the repository's one repeatable benchmark: four rigs
// (workloads) driven by one seeded op generator, ten end-to-end numbers per
// workload measured with no tracer anywhere (three of them gated by
// BENCHMARK.json), and a traced pass that times every layer from outside
// through the seams the program already exposes. See README.md.
//
// It is run from the repository root by run.sh (the command BENCHMARK.json
// names), which builds it into .bench_build/:
//
//	bash bench/run.sh --workload node-edit --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --selfcheck
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

//go:embed testdata/policy.json
var policyJSON []byte

// scratchRoot holds everything a run writes besides its trace: policy file,
// WAL directories, snapshots. It sits under the build directory run.sh
// creates, inside the checkout and git-ignored.
const scratchRoot = ".bench_build"

// traceDir receives trace-<workload>.jsonl from traced runs.
const traceDir = "bench/out"

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: engine-edit | node-edit | corpus | cluster")
		seed      = flag.Int64("seed", 1, "seed of the op generator; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", runSeconds, "must be run_seconds: the op counts are frozen, not scaled")
		trace     = flag.Int("trace", 0, "0: the gated end-to-end metrics; 1: the same run, then the traced pass: per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload repeatedly and test each metric's spread against its bound")
		sets      = flag.Int("sets", 2, "selfcheck: sets of runs to compare")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload, each with its own seed")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck(*sets, *runs, *seed))
	}
	w := findWorkload(*name)
	if w == nil || *seconds != runSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintf(os.Stderr, "), --seconds %d and --trace 0|1\n", runSeconds)
		os.Exit(2)
	}
	rep, err := runWorkload(w, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printEnv records where and on what the run happened, on its own line
// ahead of the result (the result line's keys are fixed).
func printEnv(w *workload, seed int64, traced bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env, _ := json.Marshal(map[string]interface{}{
		"workload": w.name, "seed": seed, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	})
	fmt.Printf("env %s\n", env)
}

// setupReps is how many times a run builds its inputs and rig; setup_s is
// the median, so one slow directory creation or port bind does not decide
// it. The last build is the one the run uses.
const setupReps = 3

// inputs are the generated corpus and op stream of one run.
type inputs struct {
	corpus      []corpusPar
	corpusBytes int
	ops         []op // the whole stream, in order
	latency     []op // ops[:latencyOps]
	closed      []op // ops[latencyOps:]
}

func (w *workload) generate(seed int64) inputs {
	var in inputs
	in.corpus, in.corpusBytes = genCorpus(seed, w.corpusBytes)
	in.ops = w.stream(seed, in.corpus, w.latencyOps+w.closedOps, w.observeShare)
	in.latency, in.closed = in.ops[:w.latencyOps], in.ops[w.latencyOps:]
	return in
}

// openRig builds the workload's rig on an empty directory: write the policy
// file, open the store, listen, prime the router.
func (w *workload) openRig(dir string, tr *tracer) (rig, rigConfig, error) {
	cfg := rigConfig{dir: dir, policy: filepath.Join(dir, "policy.json"), fsync: w.fsync, tr: tr}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, cfg, err
	}
	if err := os.WriteFile(cfg.policy, policyJSON, 0o644); err != nil {
		return nil, cfg, err
	}
	r, err := w.newRig(cfg)
	if err != nil {
		return nil, cfg, fmt.Errorf("build rig: %w", err)
	}
	return r, cfg, nil
}

// runWorkload is one run: set up setupReps times, compute the oracle's
// verdicts, run the end-to-end phases with no tracer anywhere, and — on a
// traced run — push the head of the same stream through a second rig that
// has the seam wrappers installed.
func runWorkload(w *workload, seed int64, traced bool) (report, error) {
	printEnv(w, seed, traced)
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil { // run.sh made it already
		return report{}, err
	}
	base, err := os.MkdirTemp(scratchRoot, w.name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(base)

	var (
		in     inputs
		r      rig
		cfg    rigConfig
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		from := time.Now()
		in = w.generate(seed)
		if r, cfg, err = w.openRig(filepath.Join(base, fmt.Sprintf("rig%d", rep)), nil); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(from).Seconds())
		if rep < setupReps-1 {
			if err := r.close(); err != nil {
				return report{}, fmt.Errorf("close setup rig: %w", err)
			}
			in = inputs{} // every set-up starts from an empty heap
			runtime.GC()
		}
	}

	oracleStart := time.Now()
	verified, violations, err := runOracle(cfg, in.corpus, in.ops, w.verifyStride)
	if err != nil {
		r.close()
		return report{}, err
	}
	info("set-up %.3f s; oracle: %d of %d ops verified, %d of those violate, in %.2fs",
		setups, verified, len(in.ops), violations, time.Since(oracleStart).Seconds())
	if violations == 0 || violations == verified {
		r.close()
		return report{}, fmt.Errorf("oracle is vacuous: %d of %d verified ops violate", violations, verified)
	}

	e2e, err := runEndToEnd(w, r, in, setups)
	if cerr := r.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close rig: %w", cerr)
	}
	if err != nil {
		return report{}, err
	}
	total := e2e.tally
	all, _ := json.Marshal(e2e.metrics)
	fmt.Printf("all %s\n", all)

	out := make(map[string]metricValue)
	if traced {
		r = nil
		runtime.GC()
		layers, tt, err := runTraced(w, filepath.Join(base, "traced"), in, e2e)
		if err != nil {
			return report{}, err
		}
		total.merge(tt)
		for name, unit := range perLayerUnits {
			out[name] = metricValue{Value: layers[name], Unit: unit}
		}
	} else {
		for _, name := range gatedMetrics {
			out[name] = e2e.metrics[name]
		}
	}
	if total.firstErr != "" {
		info("first failure: %s", total.firstErr)
	}
	return report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: out}, nil
}

// endToEnd is what the untraced phases of a run measured: the ten
// end-to-end numbers (gated or not) and the detail the per-layer metrics of a
// traced run draw on.
type endToEnd struct {
	metrics map[string]metricValue
	ing     ingestResult
	lat     latencyResult
	tally   tally
}

func runEndToEnd(w *workload, r rig, in inputs, setups []float64) (endToEnd, error) {
	var out endToEnd
	var err error

	if out.ing, err = runIngest(r, in.corpus); err != nil {
		return out, err
	}
	ing := out.ing
	info("ingest: %d paragraphs, %.1f MB in %.2fs; %d hashes, heap +%.1f MB",
		len(in.corpus), float64(in.corpusBytes)/1e6, ing.wall.Seconds(), ing.hashes, float64(ing.heapDelta)/1e6)

	out.lat = runLatency(r, in.latency)
	lat := out.lat
	out.tally.merge(lat.tally)
	info("latency: %d ops in %.2fs (%d observe, %d check samples)", lat.ops, lat.mem.wall.Seconds(), len(lat.observe), len(lat.check))

	runtime.GC()
	closedStart := time.Now()
	opsPerSec, ct := runClosed(r, in.closed)
	out.tally.merge(ct)
	info("closed: %d ops in %.2fs", len(in.closed), time.Since(closedStart).Seconds())

	runtime.GC()
	rec, err := runRecover(r, probeSet(in.corpus, in.closed), w.recoverReps)
	if err != nil {
		return out, err
	}
	out.tally.merge(rec.tally)
	info("persist+recover: %.1f MB on disk, checkpoint %.2fs, reopen %.3f s", float64(rec.diskBytes())/1e6, rec.took.Seconds(), rec.reopen)

	out.metrics = map[string]metricValue{
		"setup_s":             {median(setups), "s"},
		"ingest_mb_s":         {float64(in.corpusBytes) / 1e6 / ing.wall.Seconds(), "MB/s"},
		"observe_p50_ms":      {windowMedian(lat.observe, 50), "ms"},
		"observe_p95_ms":      {windowMedian(lat.observe, 95), "ms"},
		"check_p50_ms":        {windowMedian(lat.check, 50), "ms"},
		"check_p95_ms":        {windowMedian(lat.check, 95), "ms"},
		"ops_s":               {opsPerSec, "1/s"},
		"bytes_per_hash":      {float64(ing.heapDelta) / float64(ing.hashes), "B"},
		"disk_bytes_per_hash": {float64(rec.diskBytes()) / float64(ing.hashes), "B"},
		"recover_s":           {median(rec.reopen), "s"},
	}
	return out, nil
}

// info prints a progress note; only the last line of standard output is the
// result.
func info(format string, args ...interface{}) {
	fmt.Printf("# "+format+"\n", args...)
}
