package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the contract at the repository root; -selfcheck reads the
// metric bounds from it so there is one copy of them.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// measuredMetrics are runEndToEnd's ten numbers in the order -selfcheck
// lists them.
var measuredMetrics = []string{
	"setup_s", "ingest_mb_s", "observe_p50_ms", "observe_p95_ms", "check_p50_ms", "check_p95_ms",
	"ops_s", "bytes_per_hash", "disk_bytes_per_hash", "recover_s",
}

var higherIsBetter = map[string]bool{"ingest_mb_s": true, "ops_s": true}

// runSelfcheck applies to this benchmark the acceptance test its driver
// applies: every workload is run runs times per set, each run with its own
// seed and workloads alternating so drift hits all of them alike; then, per
// workload and gated metric, each set's quartile spread (Q3-Q1 over the
// median, statistics.quantiles(n=4) quartiles) must stay within the metric's
// bound — setup_s excepted — and a later set's median must not be worse than
// the first set's by more than the bound. The un-gated numbers are listed
// with their spreads too: they are the evidence for leaving them un-gated.
// It returns the process exit code.
func runSelfcheck(sets, runs int, seed int64) int {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", benchmarkFile, err)
		return 2
	}
	gated := make(map[string]metricSpec)
	for _, m := range spec.EndToEnd {
		gated[m.Name] = m
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// values[set][workload][metric] = one value per run
	values := make([]map[string]map[string][]float64, sets)
	failedOps := 0
	for s := 0; s < sets; s++ {
		values[s] = make(map[string]map[string][]float64)
		for r := 0; r < runs; r++ {
			for _, w := range workloads {
				runSeed := seed + int64(s*runs+r)
				rep, all, err := runChild(self, w.name, runSeed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, runSeed, err)
					return 1
				}
				failedOps += rep.Failed
				fmt.Printf("# set %d run %d %-11s seed %d: attempted %d failed %d\n", s+1, r+1, w.name, runSeed, rep.Attempted, rep.Failed)
				if values[s][w.name] == nil {
					values[s][w.name] = make(map[string][]float64)
				}
				for name, v := range all {
					values[s][w.name][name] = append(values[s][w.name][name], v.Value)
				}
			}
		}
	}

	fmt.Printf("\n%-12s %-20s %6s", "workload", "metric", "bound")
	for s := 1; s <= sets; s++ {
		fmt.Printf(" %13s %7s", "median"+strconv.Itoa(s), "spread")
	}
	fmt.Printf(" %7s  %s\n", "gap", "result")
	pass := failedOps == 0
	for _, w := range workloads {
		for _, name := range measuredMetrics {
			m, isGated := gated[name]
			if isGated {
				fmt.Printf("%-12s %-20s %5.1f%%", w.name, name, 100*m.Bound)
			} else {
				fmt.Printf("%-12s %-20s %6s", w.name, name, "-")
			}
			ok := true
			var first, gap float64
			for s := 0; s < sets; s++ {
				vals := values[s][w.name][name]
				med := median(vals)
				q1, q3 := quartiles(vals)
				spread := (q3 - q1) / med
				fmt.Printf(" %13.6g %6.2f%%", med, 100*spread)
				if name != "setup_s" && spread > m.Bound {
					ok = false
				}
				if s == 0 {
					first = med
					continue
				}
				worse := (med - first) / first // lower is better
				if higherIsBetter[name] {
					worse = (first - med) / first
				}
				if worse > gap {
					gap = worse
				}
			}
			if gap > m.Bound {
				ok = false
			}
			result := "PASS"
			switch {
			case !isGated:
				result = "un-gated"
			case !ok:
				result = "FAIL"
				pass = false
			}
			fmt.Printf(" %6.2f%%  %s\n", 100*gap, result)
		}
	}
	if failedOps > 0 {
		fmt.Printf("\n%d ops failed against the oracle\n", failedOps)
	}
	if !pass {
		fmt.Println("\nselfcheck: FAIL")
		return 1
	}
	fmt.Println("\nselfcheck: PASS")
	return 0
}

// runChild runs one workload in its own process and parses the result line
// and, before it, the "all" line with the ten measured numbers. Run waits
// for the child to end, so none outlives the selfcheck.
func runChild(self, workload string, seed int64) (report, map[string]metricValue, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(runSeconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return rep, nil, runErr
		}
		return rep, nil, fmt.Errorf("no result line: %w", err)
	}
	var all map[string]metricValue
	for _, l := range lines {
		if rest := strings.TrimPrefix(l, "all "); rest != l {
			if err := json.Unmarshal([]byte(rest), &all); err != nil {
				return rep, nil, fmt.Errorf("all line: %w", err)
			}
		}
	}
	return rep, all, nil
}
