package admission

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// newPolicyEngine builds a real engine with a tagged wiki service and an
// untagged docs service, the §2 disclosure scenario.
func newPolicyEngine(t *testing.T) *policy.Engine {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// recordingEngine wraps a real engine and records the executed observe
// subsequence in order (drive it with Workers: 1 for a total order).
type recordingEngine struct {
	inner *policy.Engine

	mu  sync.Mutex
	log []executedObserve
}

type executedObserve struct {
	seg     segment.ID
	service string
	hashes  []uint32
	verdict policy.Verdict
}

func (r *recordingEngine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	v, err := r.inner.ObserveEditFPCtx(ctx, seg, service, fp)
	if err == nil {
		r.mu.Lock()
		r.log = append(r.log, executedObserve{seg: seg, service: service, hashes: fp.Hashes(), verdict: v})
		r.mu.Unlock()
	}
	return v, err
}

func (r *recordingEngine) ObserveDocumentEditFPCtx(ctx context.Context, doc segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	return r.inner.ObserveDocumentEditFPCtx(ctx, doc, service, fp)
}

func (r *recordingEngine) ObserveBatchFPCtx(ctx context.Context, service string, items []disclosure.BatchObservation) ([]policy.Verdict, error) {
	return r.inner.ObserveBatchFPCtx(ctx, service, items)
}

// verdictJSON is the byte-comparison form of a verdict: everything the
// wire protocol exposes.
func verdictJSON(t *testing.T, v policy.Verdict) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Decision  string
		Violating []tdm.Tag
		Sources   []disclosure.Source
	}{v.Decision.String(), v.Violating, v.Sources})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

const wikiSecret = "Candidate evaluations are confidential and must never leave the internal interview tooling, including anonymised excerpts shared for calibration purposes."

// keystrokeStates returns the successive text states of typing s: the
// per-keystroke stream the docs editor produces.
func keystrokeStates(s string, stride int) []string {
	var states []string
	for i := stride; i < len(s); i += stride {
		states = append(states, s[:i])
	}
	states = append(states, s)
	return states
}

// Coalescing correctness: the verdicts the pipeline delivers are
// byte-identical to an unbatched engine fed the same executed subsequence
// of keystroke states — a fold is indistinguishable from slower typing.
// The scenario includes a real disclosure (wiki text typed into docs), so
// the equivalence covers violating verdicts, not just allows.
func TestCoalescedVerdictsMatchUnbatchedPath(t *testing.T) {
	engineA := newPolicyEngine(t) // behind the pipeline
	engineB := newPolicyEngine(t) // the unbatched reference

	cfg := fingerprint.Config{NGram: 6, Window: 4}
	seedFP, err := fingerprint.Compute(wikiSecret, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines observe the tagged source identically.
	if _, err := engineA.ObserveEditFP("wiki/eval#p0", "wiki", seedFP); err != nil {
		t.Fatal(err)
	}
	if _, err := engineB.ObserveEditFP("wiki/eval#p0", "wiki", seedFP); err != nil {
		t.Fatal(err)
	}

	rec := &recordingEngine{inner: engineA}
	p, err := New(rec, Config{Workers: 1, CoalesceWindow: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Editor 0 types the wiki secret into the external docs service (the
	// §2 accidental disclosure); the others type benign text. Keystrokes
	// are fired without waiting for verdicts — each is launched as soon as
	// the previous one is *admitted* (new job or fold), which pins the
	// enqueue order while leaving the pipeline free to fold trailing
	// states inside the debounce window.
	texts := []string{
		wikiSecret,
		"Meeting notes: the quarterly planning session moved to Thursday afternoon in the large conference room.",
		"Draft blog post about our new open source release and the community response to the first milestone.",
	}
	admitted := func() uint64 {
		st := p.Stats()
		return st.Interactive.Submitted + st.Folds
	}
	finals := make([]policy.Verdict, len(texts))
	var wg sync.WaitGroup
	for e, text := range texts {
		e := e
		seg := segment.ID(fmt.Sprintf("docs/doc%d#p0", e))
		states := keystrokeStates(text, 7)
		for si, state := range states {
			fpState, err := fingerprint.Compute(state, cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := si == len(states)-1
			before := admitted()
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := p.Observe(context.Background(), "docs", seg, segment.GranularityParagraph, fpState)
				if err != nil {
					t.Errorf("editor %d: %v", e, err)
					return
				}
				if last {
					finals[e] = v
				}
			}()
			waitFor(t, func() bool { return admitted() > before })
		}
	}
	wg.Wait()
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The disclosure must have been caught through the coalesced path.
	if !finals[0].Violation() {
		t.Fatalf("editor 0's final verdict %+v misses the wiki disclosure", finals[0])
	}
	if p.Stats().Folds == 0 {
		t.Fatal("no folds happened; the test exercised nothing")
	}

	// Replay the executed subsequence through the unbatched engine: every
	// verdict must be byte-identical.
	rec.mu.Lock()
	log := append([]executedObserve(nil), rec.log...)
	rec.mu.Unlock()
	lastBySeg := make(map[segment.ID]policy.Verdict)
	for i, exec := range log {
		ref, err := engineB.ObserveEditFP(exec.seg, exec.service, fingerprint.FromHashes(exec.hashes))
		if err != nil {
			t.Fatal(err)
		}
		got, want := verdictJSON(t, exec.verdict), verdictJSON(t, ref)
		if got != want {
			t.Fatalf("verdict divergence at executed observe %d (%s):\n pipeline:  %s\n unbatched: %s", i, exec.seg, got, want)
		}
		lastBySeg[exec.seg] = ref
	}
	// The verdict each editor's final keystroke received is the one for
	// its final executed state.
	for e := range texts {
		seg := segment.ID(fmt.Sprintf("docs/doc%d#p0", e))
		if got, want := verdictJSON(t, finals[e]), verdictJSON(t, lastBySeg[seg]); got != want {
			t.Fatalf("editor %d final verdict diverges:\n delivered: %s\n unbatched: %s", e, got, want)
		}
	}
}

// Sustained 2x saturation: the pipeline sheds with Retry-After hints under
// a bounded queue, keeps accepted interactive latency inside the SLO, and
// recovers full service once the load subsides.
func TestSustainedOverloadShedsAndRecovers(t *testing.T) {
	const (
		serviceTime = 2 * time.Millisecond
		workers     = 2
		queueCap    = 64
		// Capacity = workers/serviceTime = 1000 obs/s; offer 2x in 5ms
		// batches (sub-millisecond sleeps are unreliable under load).
		tickEvery = 5 * time.Millisecond
		perTick   = 10
		ticks     = 300 // 1.5s of offered load
	)
	eng := &fakeEngine{delay: serviceTime}
	p, err := New(eng, Config{
		Workers:          workers,
		InteractiveQueue: queueCap,
		MaxDwell:         500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		sheds     int
		hintLow   int
	)
	var wg sync.WaitGroup
	seq := 0
	for tick := 0; tick < ticks; tick++ {
		start := time.Now()
		for i := 0; i < perTick; i++ {
			seq++
			n := seq
			seg := segment.ID(fmt.Sprintf("docs/doc%d#p0", n%997)) // mostly distinct segments
			wg.Add(1)
			go func() {
				defer wg.Done()
				begin := time.Now()
				_, err := p.Observe(context.Background(), "docs", seg, segment.GranularityParagraph, fp(uint32(n)))
				el := time.Since(begin)
				mu.Lock()
				defer mu.Unlock()
				if oe, ok := AsOverload(err); ok {
					sheds++
					if oe.RetryAfter < time.Second {
						hintLow++
					}
					return
				}
				if err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				latencies = append(latencies, el)
			}()
		}
		if rest := tickEvery - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
	}
	wg.Wait()

	st := p.Stats()
	if st.Interactive.MaxDepth > queueCap {
		t.Fatalf("queue depth %d exceeded cap %d: memory is not bounded", st.Interactive.MaxDepth, queueCap)
	}
	mu.Lock()
	if sheds == 0 {
		t.Fatal("2x sustained saturation never shed: queue must have buffered unboundedly")
	}
	if hintLow > 0 {
		t.Fatalf("%d shed responses carried a Retry-After below the 1s floor", hintLow)
	}
	if len(latencies) == 0 {
		t.Fatal("no requests were served at all")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	idx := len(latencies) * 99 / 100
	if idx >= len(latencies) {
		idx = len(latencies) - 1
	}
	p99 := latencies[idx]
	mu.Unlock()
	// Accepted work waits for at most a full queue shared by the workers,
	// then its own service, plus scheduling slack — the SLO the bounded
	// queue buys. The service time is the slowest one the engine measured
	// in this run, not the nominal sleep: a loaded box stretches it.
	eng.mu.Lock()
	slowest := eng.slowest
	eng.mu.Unlock()
	slo := (queueCap/workers+1)*slowest + 250*time.Millisecond
	if p99 > slo {
		t.Fatalf("accepted interactive p99 = %s breaches the %s SLO (slowest service %s)", p99, slo, slowest)
	}

	// Load subsides: the queue drains and fresh requests are served
	// promptly with no shedding.
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 0 })
	shedBefore := p.Stats().Interactive.Shed
	for i := 0; i < 20; i++ {
		begin := time.Now()
		if _, err := p.Observe(context.Background(), "docs", segment.ID(fmt.Sprintf("docs/after#p%d", i)), segment.GranularityParagraph, fp(uint32(i))); err != nil {
			t.Fatalf("post-recovery observe %d: %v", i, err)
		}
		if el := time.Since(begin); el > 500*time.Millisecond {
			t.Fatalf("post-recovery latency %s: service did not recover", el)
		}
	}
	if got := p.Stats().Interactive.Shed; got != shedBefore {
		t.Fatalf("shedding continued after load subsided (%d -> %d)", shedBefore, got)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		t.Fatalf("heap grew %d bytes across the overload run: buffering is not bounded", grew)
	}
}

// Under pressure the bulk lane degrades first: its tighter dwell bound
// sheds bulk arrivals while interactive work is still being admitted.
func TestBulkDegradesBeforeInteractive(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	clk := clock.NewFake(time.Unix(1000, 0))
	p, err := New(eng, Config{
		Obs:              obs.New(clk, 0),
		Workers:          1,
		InteractiveQueue: 100,
		BulkQueue:        100,
		MaxDwell:         10 * time.Second,
		BulkMaxDwell:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(eng.gate)
		p.Close(context.Background())
	}()

	var wg sync.WaitGroup
	// Wedge the worker, then queue one bulk flush and let it go stale.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Observe(context.Background(), "docs", "docs/blocker#p0", segment.GranularityParagraph, fp(1))
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Executed == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.ObserveBatch(context.Background(), "docs", []disclosure.BatchObservation{{Seg: "docs/bulk#p0", FP: fp(2)}})
	}()
	waitFor(t, func() bool { return p.Stats().Bulk.Depth == 1 })
	clk.Advance(80 * time.Millisecond) // past BulkMaxDwell, far under MaxDwell

	// Bulk arrivals shed; interactive arrivals are still admitted.
	if _, err := p.ObserveBatch(context.Background(), "docs", []disclosure.BatchObservation{{Seg: "docs/bulk2#p0", FP: fp(3)}}); err == nil {
		t.Fatal("stale bulk lane admitted more bulk work")
	} else if oe, ok := AsOverload(err); !ok || oe.Lane != LaneBulk || oe.Reason != ReasonStale {
		t.Fatalf("bulk err = %v, want stale bulk OverloadError", err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Observe(context.Background(), "docs", "docs/live#p0", segment.GranularityParagraph, fp(4)); err != nil {
			t.Errorf("interactive observe shed while only bulk was stale: %v", err)
		}
	}()
	waitFor(t, func() bool { return p.Stats().Interactive.Depth == 1 })

	for i := 0; i < 3; i++ {
		eng.gate <- struct{}{}
	}
	wg.Wait()
}
