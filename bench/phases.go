package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/fingerprint"
)

// warmupShare of every request phase's ops run before timing starts (closed
// phase) or are dropped from the samples (latency phase).
const warmupShare = 0.10

// runOracle computes the verdict every verified op must get, by replaying
// the verified editors' ops serially, in stream order, through a fresh
// journal-less engine. By construction an editor's decisions depend only on
// the corpus and on its own earlier ops (its segments are its own, and docs
// text carries no tags another editor could inherit), so a subset of
// editors can be replayed alone. The oracle's corpus is reduced too, but
// exactly: for every hash any verified text contains it holds the oldest
// corpus paragraph with that hash, in corpus order, so each hash has the
// same authoritative holder as in the full corpus and the disclosure
// algorithm sees the same candidates.
func runOracle(cfg rigConfig, corpus []corpusPar, ops []op, stride int) (verified, violations int, err error) {
	mw, err := browserflow.NewFromPolicyFile(cfg.policy)
	if err != nil {
		return 0, 0, err
	}
	engine := mw.Engine()
	fpcfg := mw.Tracker().Params().Fingerprint
	var (
		sc fingerprint.Scratch
		hs []uint32
	)
	wanted := make(map[uint32]struct{})
	for i := range ops {
		if int(ops[i].editor)%stride != 0 {
			continue
		}
		if hs, err = sc.AppendHashes(hs[:0], ops[i].text, fpcfg); err != nil {
			return 0, 0, err
		}
		for _, h := range hs {
			wanted[h] = struct{}{}
		}
	}
	for i := range corpus {
		if hs, err = sc.AppendHashes(hs[:0], corpus[i].text, fpcfg); err != nil {
			return 0, 0, err
		}
		oldest := false
		for _, h := range hs {
			if _, ok := wanted[h]; ok {
				delete(wanted, h) // later holders of h are not authoritative
				oldest = true
			}
		}
		if !oldest {
			continue
		}
		if _, err := engine.ObserveEdit(corpus[i].seg, corpus[i].service, corpus[i].text); err != nil {
			return 0, 0, fmt.Errorf("oracle ingest: %w", err)
		}
	}
	c := engineCaller{engine}
	for i := range ops {
		if int(ops[i].editor)%stride != 0 {
			continue
		}
		v, err := c.do(&ops[i])
		if err != nil {
			return 0, 0, fmt.Errorf("oracle op %d: %w", i, err)
		}
		ops[i].want = &verdict{decision: v.decision, violating: v.violating}
		verified++
		if v.violating != "" {
			violations++
		}
	}
	return verified, violations, nil
}

// tally counts a phase's attempted and failed ops. An op fails when the rig
// returned an error (a 429 and a 5xx surface as errors from the client) or
// its verdict differs from the oracle's.
type tally struct {
	attempted int
	failed    int
	firstErr  string
}

func (t *tally) add(o *op, got verdict, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail(fmt.Sprintf("%s: %v", o.seg, err))
	case o.want != nil && *o.want != got:
		t.fail(fmt.Sprintf("op on %q (editor %d): got %+v, oracle %+v", o.seg, o.editor, got, *o.want))
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// result of one op, kept in pre-allocated slices so a timed loop allocates
// nothing of its own.
type opResult struct {
	got verdict
	err error
}

// memDelta is what the Go runtime did across a phase.
type memDelta struct {
	mallocs, allocBytes uint64
	gcPause             time.Duration
	wall                time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats, wall time.Duration) memDelta {
	after := readMem()
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		wall:       wall,
	}
}

// latencyResult holds a latency phase's samples in stream order, warm-up
// already dropped, in milliseconds.
type latencyResult struct {
	observe, check []float64
	mem            memDelta
	ops            int
	tally          tally
}

// runLatency runs a latency phase: one closed-loop caller, each op timed
// from its own start — the service time a single device sees.
func runLatency(r rig, ops []op) latencyResult {
	n := len(ops)
	lat := make([]time.Duration, n)
	res := make([]opResult, n)
	c := r.caller(0)

	runtime.GC()
	before := readMem()
	start := time.Now()
	for i := range ops {
		t0 := time.Now()
		res[i].got, res[i].err = c.do(&ops[i])
		lat[i] = time.Since(t0)
	}
	wall := time.Since(start)

	out := latencyResult{mem: memSince(before, wall), ops: n}
	warm := int(float64(n) * warmupShare)
	out.observe = make([]float64, 0, n-warm)
	out.check = make([]float64, 0, n-warm)
	for i := range ops {
		out.tally.add(&ops[i], res[i].got, res[i].err)
		if i < warm {
			continue
		}
		ms := float64(lat[i]) / float64(time.Millisecond)
		if ops[i].kind == opObserve {
			out.observe = append(out.observe, ms)
		} else {
			out.check = append(out.check, ms)
		}
	}
	return out
}

// runClosed runs the closed phase: clients closed-loop callers, each working
// through the ops of its own editors back to back. The first warmupShare of
// every client's ops runs untimed; the phase's number is the ops the rest
// completed per second of wall time.
func runClosed(r rig, ops []op) (opsPerSec float64, t tally) {
	idx := splitByClient(ops, clients)
	res := make([]opResult, len(ops))
	run := func(warm bool) (int, time.Duration) {
		var wg sync.WaitGroup
		done := 0
		start := time.Now()
		for c := range idx {
			cut := int(float64(len(idx[c])) * warmupShare)
			mine := idx[c][cut:]
			if warm {
				mine = idx[c][:cut]
			}
			done += len(mine)
			wg.Add(1)
			go func(c caller, mine []int) {
				defer wg.Done()
				for _, i := range mine {
					res[i].got, res[i].err = c.do(&ops[i])
				}
			}(r.caller(c), mine)
		}
		wg.Wait()
		return done, time.Since(start)
	}
	run(true)
	runtime.GC()
	done, wall := run(false)
	for i := range ops {
		t.add(&ops[i], res[i].got, res[i].err)
	}
	return float64(done) / wall.Seconds(), t
}

// ingestResult is the ingest phase's measurements.
type ingestResult struct {
	wall      time.Duration
	heapDelta int64 // live heap growth across the phase, after two GCs
	hashes    int   // distinct hashes, summed over nodes
	postings  int
}

// runIngest pushes the corpus through the rig's bulk write path.
func runIngest(r rig, corpus []corpusPar) (ingestResult, error) {
	runtime.GC()
	runtime.GC()
	heap0 := readMem().HeapAlloc
	start := time.Now()
	if err := r.ingest(corpus); err != nil {
		return ingestResult{}, err
	}
	out := ingestResult{wall: time.Since(start)}
	runtime.GC()
	runtime.GC()
	out.heapDelta = int64(readMem().HeapAlloc) - int64(heap0)
	for _, mw := range r.engines() {
		st := mw.Tracker().Paragraphs().Stats()
		out.hashes += st.DistinctHashes
		out.postings += st.Postings
	}
	return out, nil
}

// probeSet is a fixed set of read-only ops whose verdicts must be the same
// before and after a restart: release checks of corpus paragraphs (the
// index survived) and upload checks of the editors' own segments (their
// labels survived).
func probeSet(corpus []corpusPar, ops []op) []op {
	const corpusProbes = 100
	var probes []op
	step := len(corpus) / corpusProbes
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(corpus) && len(probes) < corpusProbes; i += step {
		probes = append(probes, op{kind: opCheck, src: int32(i), service: svcNotes, text: corpus[i].text})
	}
	last := make(map[int32]*op) // each editor's most recently observed segment
	for i := range ops {
		if ops[i].kind == opObserve {
			last[ops[i].editor] = &ops[i]
		}
	}
	for e := int32(0); e < editors; e++ {
		if o := last[e]; o != nil {
			probes = append(probes, op{kind: opUpload, editor: e, src: o.src, seg: o.seg, service: svcNotes})
		}
	}
	return probes
}

func runProbes(r rig, probes []op) ([]verdict, error) {
	c := r.caller(0)
	out := make([]verdict, len(probes))
	for i := range probes {
		v, err := c.do(&probes[i])
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// recoverResult is the persist+recover phase's measurements.
type recoverResult struct {
	persisted
	reopen []float64 // seconds, one per cycle
	tally  tally
}

// runRecover persists the rig, then restarts it reps times, timing each
// reopen. The recovered rig must answer every probe as it did before the
// first restart; a probe that does not is a failed op.
func runRecover(r rig, probes []op, reps int) (recoverResult, error) {
	var out recoverResult
	before, err := runProbes(r, probes)
	if err != nil {
		return out, err
	}
	out.persisted, err = r.persist()
	if err != nil {
		return out, fmt.Errorf("persist: %w", err)
	}
	for i := 0; i < reps; i++ {
		d, err := r.recoverOnce()
		if err != nil {
			return out, fmt.Errorf("recover: %w", err)
		}
		out.reopen = append(out.reopen, d.Seconds())
	}
	after, err := runProbes(r, probes)
	if err != nil {
		return out, err
	}
	for i := range probes {
		out.tally.attempted++
		if before[i] != after[i] {
			out.tally.fail(fmt.Sprintf("probe %d: %+v before restart, %+v after", i, before[i], after[i]))
		}
	}
	return out, nil
}
