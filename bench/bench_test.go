package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestWindowMedianAbsorbsOneStall(t *testing.T) {
	// 3000 latency samples of 1.0 with 10 % at 2.0, spread evenly.
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = 1.0
		if i%10 == 9 {
			samples[i] = 2.0
		}
	}
	if p50, p95 := windowMedian(samples, 50), windowMedian(samples, 95); p50 != 1 || p95 != 2 {
		t.Fatalf("clean series: P50 %v P95 %v, want 1 and 2", p50, p95)
	}
	// One 200 ms stall delays 40 consecutive samples: it lands in one window
	// of ten. The whole-phase P99 moves, the window-median P95 does not.
	for i := 2700; i < 2740; i++ {
		samples[i] = 200 - float64(i-2700)*5
	}
	if p50, p95 := windowMedian(samples, 50), windowMedian(samples, 95); p50 != 1 || p95 != 2 {
		t.Fatalf("one stall moved the window medians: P50 %v P95 %v", p50, p95)
	}
	if whole := pctOf(samples, 99); whole <= 2 {
		t.Fatalf("whole-phase P99 %v did not show the stall", whole)
	}
	// Stalls that reach most windows are the program's behaviour and must
	// show: every 15th sample waits 50, twenty per window of 300.
	periodic := append([]float64(nil), samples...)
	for i := 0; i < len(periodic); i += 15 {
		periodic[i] = 50
	}
	if p95 := windowMedian(periodic, 95); p95 <= 2 {
		t.Fatalf("window-median P95 %v hides a stall that recurs in every window", p95)
	}
	// So does a slowdown of every sample.
	for i := range samples {
		samples[i] *= 1.1
	}
	if p50 := windowMedian(samples, 50); p50 != 1.1 {
		t.Fatalf("window-median P50 %v did not follow a 10 %% slowdown", p50)
	}
	// Fewer samples than windows: the plain percentile.
	if got := windowMedian([]float64{3, 1, 2}, 50); got != 2 {
		t.Fatalf("three samples: got %v, want 2", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 2, 8, 4, 6], n=4) == [3.0, 6.0, 9.0]
	q1, q3 = quartiles([]float64{10, 2, 8, 4, 6})
	if q1 != 3 || q3 != 9 {
		t.Fatalf("quartiles = %v, %v; want 3, 9", q1, q3)
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) ([]corpusPar, []op, []op) {
		corpus, _ := genCorpus(seed, 1<<20)
		return corpus, genEditStream(seed, corpus, 5000, 0.7), genPasteStream(seed, corpus, 2000, 0.5)
	}
	c1, e1, p1 := gen(11)
	c2, e2, p2 := gen(11)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed gave different inputs")
	}
	c3, e3, p3 := gen(12)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(e1, e3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds gave the same inputs")
	}

	observes, checks := 0, 0
	for i, o := range e1 {
		if int(o.editor) != i%editors {
			t.Fatalf("op %d belongs to editor %d, want %d", i, o.editor, i%editors)
		}
		if o.text == "" {
			t.Fatalf("op %d has no text", i)
		}
		if o.kind == opObserve {
			observes++
		} else {
			checks++
		}
	}
	if share := float64(observes) / float64(len(e1)); math.Abs(share-0.7) > 0.05 {
		t.Fatalf("observe share %.2f, want about 0.70", share)
	}
	for _, p := range c1 {
		if len(p.text) > parBytes+parBytes/3 || len(p.text) < 60 {
			t.Fatalf("corpus paragraph of %d bytes", len(p.text))
		}
	}

	// Every editor's ops go to one client, in stream order.
	idx := splitByClient(e1, 2)
	if len(idx[0])+len(idx[1]) != len(e1) {
		t.Fatal("splitByClient lost ops")
	}
	for c, mine := range idx {
		for k, i := range mine {
			if int(e1[i].editor)%2 != c {
				t.Fatalf("editor %d's op on client %d", e1[i].editor, c)
			}
			if k > 0 && mine[k-1] >= i {
				t.Fatal("client ops out of stream order")
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op 0 on a single node: op > rtt > handler > engine > journal > write, sync.
	serial := []span{
		{layer: layerOp, node: noNode, start: 0, end: 1000},
		{layer: layerRTT, node: noNode, start: 100, end: 900},
		{layer: layerHandler, node: noNode, start: 200, end: 800},
		{layer: layerEngine, node: noNode, start: 300, end: 700},
		{layer: layerJournal, node: noNode, start: 400, end: 650},
		{layer: layerWrite, node: noNode, start: 410, end: 430},
		{layer: layerSync, node: noNode, start: 440, end: 640},
		// a background fsync between ops has no parent
		{layer: layerSync, node: noNode, start: 1100, end: 1300},
	}
	self, parent := selfTimes(serial)
	wantSelf := []int64{200, 200, 200, 150, 30, 20, 200, 200}
	wantParent := []int{-1, 0, 1, 2, 3, 4, 4, -1}
	if !reflect.DeepEqual(self, wantSelf) || !reflect.DeepEqual(parent, wantParent) {
		t.Fatalf("serial: self %v parent %v, want %v %v", self, parent, wantSelf, wantParent)
	}
	if err := checkSelfTimes(serial, self, parent); err != nil {
		t.Fatal(err)
	}

	// A scatter: three concurrent legs under the proxy handler, one leg
	// fully inside another in time; each node's handler belongs to the leg
	// sent to that node.
	scatter := []span{
		{layer: layerOp, node: noNode, start: 0, end: 1000},
		{layer: layerProxy, node: noNode, start: 100, end: 900},
		{layer: layerLeg, node: 0, start: 200, end: 700},
		{layer: layerLeg, node: 1, start: 210, end: 500},
		{layer: layerLeg, node: 2, start: 220, end: 800},
		{layer: layerHandler, node: 0, start: 300, end: 600},
		{layer: layerHandler, node: 1, start: 310, end: 400},
		{layer: layerHandler, node: 2, start: 320, end: 700},
	}
	self, parent = selfTimes(scatter)
	if want := []int{-1, 0, 1, 1, 1, 2, 3, 4}; !reflect.DeepEqual(parent, want) {
		t.Fatalf("scatter: parent %v, want %v", parent, want)
	}
	// proxy: 800 minus the legs' union [200,800]
	if self[1] != 200 {
		t.Fatalf("proxy self %d, want 200 (legs counted once where they overlap)", self[1])
	}
	var sum int64
	for i, s := range self {
		if s < 0 {
			t.Fatalf("span %d has negative self time %d", i, s)
		}
		sum += s
	}
	if sum < scatter[0].dur() {
		t.Fatalf("self times sum to %d, below the outermost span's %d", sum, scatter[0].dur())
	}
	if err := checkSelfTimes(scatter, self, parent); err != nil {
		t.Fatal(err)
	}

	// The check rejects a trace whose arithmetic is off.
	self, parent = selfTimes(serial)
	self[0] -= 50
	if err := checkSelfTimes(serial, self, parent); err == nil {
		t.Fatal("checkSelfTimes accepted self times that do not add up to the outermost span")
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the names the program
// prints from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: contract %q, code %q (or their why differs)", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(gatedMetrics) {
		t.Fatalf("%d end_to_end metrics in the contract, %d gated in the code", len(spec.EndToEnd), len(gatedMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != gatedMetrics[i] {
			t.Errorf("end_to_end %d: contract %q, code %q", i, m.Name, gatedMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per_layer metrics in the contract, %d in the code", len(spec.PerLayer), len(perLayerUnits))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %q: contract unit %q, code %q", m.Name, m.Unit, unit)
		}
	}
}
