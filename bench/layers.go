package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/normalize"
	"github.com/lsds/browserflow/internal/rollhash"
	"github.com/lsds/browserflow/internal/segment"
)

// traceBlock is the number of consecutive ops per traced or untraced block
// of the traced pass. Alternating short blocks gives both sides the same
// database state and the same machine weather, so their ratio is the
// tracing overhead.
const traceBlock = 250

// standaloneCalls bounds how many op texts the pure stages are timed on.
const standaloneCalls = 4000

// perLayerUnits lists every per-layer metric with its unit. Every workload
// reports all of them; a layer that does no work on a workload reports 0.
var perLayerUnits = map[string]string{
	"normalize.p50_us":              "us",
	"rollhash.p50_us":               "us",
	"fingerprint.compute_p50_us":    "us",
	"fingerprint.hashes_per_kb":     "1/KB",
	"index.lookup_p50_us":           "us",
	"index.distinct_hashes":         "count",
	"index.postings":                "count",
	"policy.observe_self_p50_us":    "us",
	"policy.check_self_p50_us":      "us",
	"disclosure.unchanged_fp_ratio": "ratio",
	"tdm.check_p50_us":              "us",
	"store.journal_p50_us":          "us",
	"store.journal_self_p50_us":     "us",
	"store.checkpoint_s":            "s",
	"store.checkpoint_mb":           "MB",
	"wal.bytes_per_op":              "B",
	"wal.writes_per_op":             "count",
	"wal.fsyncs_per_op":             "count",
	"wal.write_p50_us":              "us",
	"wal.fsync_p50_us":              "us",
	"wal.fsync_p95_us":              "us",
	"admission.self_p50_us":         "us",
	"admission.coalesced_ratio":     "ratio",
	"admission.shed_ratio":          "ratio",
	"tagserver.server_self_p50_us":  "us",
	"tagserver.client_self_p50_us":  "us",
	"tagserver.request_bytes_p50":   "B",
	"tagserver.response_bytes_p50":  "B",
	"http.rtt_self_p50_us":          "us",
	"partition.tier_self_p50_us":    "us",
	"partition.leg_p50_us":          "us",
	"partition.slowest_leg_p50_us":  "us",
	"partition.legs_per_observe":    "count",
	"partition.legs_per_check":      "count",
	"go.allocs_per_op":              "count",
	"go.alloc_bytes_per_op":         "B",
	"go.gc_pause_ms_per_s":          "ms/s",
	"bench.trace_overhead_ratio":    "ratio",
	"bench.ingest_mb_s":             "MB/s",
	"bench.observe_p50_ms":          "ms",
	"bench.observe_p95_ms":          "ms",
	"bench.check_p50_ms":            "ms",
	"bench.check_p95_ms":            "ms",
	"bench.ops_s":                   "1/s",
	"bench.recover_s":               "s",
	"bench.observe_p99_ms":          "ms",
	"bench.check_p99_ms":            "ms",
	"bench.observe_max_ms":          "ms",
	"bench.samples_observe":         "count",
	"bench.samples_check":           "count",
}

// demoted prefixes an end-to-end number that is reported but not gated.
const demoted = "bench."

// runTraced is the second half of a --trace 1 run. The end-to-end phases
// have run on an unwrapped rig (e2e); their un-gated numbers are reported
// under the bench. prefix, and the latency phase gives the tails and the
// runtime's allocation figures. Then a fresh rig with the seam wrappers
// installed ingests the corpus and replays the head of the same stream in
// alternating untraced and traced blocks, is checkpointed, and the stages
// that have no seam are timed standalone.
func runTraced(w *workload, dir string, in inputs, e2e endToEnd) (map[string]float64, tally, error) {
	m := make(map[string]float64, len(perLayerUnits))
	var total tally

	for name, v := range e2e.metrics {
		if _, ok := perLayerUnits[demoted+name]; ok {
			m[demoted+name] = v.Value
		}
	}
	lat := e2e.lat
	m["index.distinct_hashes"] = float64(e2e.ing.hashes)
	m["index.postings"] = float64(e2e.ing.postings)
	m["go.allocs_per_op"] = float64(lat.mem.mallocs) / float64(lat.ops)
	m["go.alloc_bytes_per_op"] = float64(lat.mem.allocBytes) / float64(lat.ops)
	m["go.gc_pause_ms_per_s"] = float64(lat.mem.gcPause) / float64(time.Millisecond) / lat.mem.wall.Seconds()
	m["bench.observe_p99_ms"] = pctOf(lat.observe, 99)
	m["bench.check_p99_ms"] = pctOf(lat.check, 99)
	m["bench.observe_max_ms"] = pctOf(lat.observe, 100)
	m["bench.samples_observe"] = float64(len(lat.observe))
	m["bench.samples_check"] = float64(len(lat.check))

	tr := newTracer(w.traceOps * 8)
	r, _, err := w.openRig(dir, tr)
	if err != nil {
		return nil, total, err
	}
	defer r.close()
	if _, err := runIngest(r, in.corpus); err != nil {
		return nil, total, err
	}

	runtime.GC()
	ops := in.ops[:w.traceOps]
	blocks := runTraceBlocks(r, tr, ops)
	total.merge(blocks.tally)
	m["bench.trace_overhead_ratio"] = blocks.overhead()
	info("traced blocks: %d ops, %d spans; untraced/traced p50 observe %.1f/%.1f us, check %.1f/%.1f us",
		len(ops), len(tr.spans), median(blocks.untraced[opObserve]), median(blocks.traced[opObserve]),
		median(blocks.untraced[opCheck]), median(blocks.traced[opCheck]))

	if w.fsync != 0 { // the journal-less rig has no store
		p, err := r.persist()
		if err != nil {
			return nil, total, fmt.Errorf("checkpoint: %w", err)
		}
		m["store.checkpoint_s"] = p.took.Seconds()
		m["store.checkpoint_mb"] = float64(p.checkpointBytes) / 1e6
	}

	// The standalone stages run first: the server's self time below needs
	// the admission pipeline's.
	if err := standaloneStages(m, r, tr, ops); err != nil {
		return nil, total, err
	}
	if err := spanMetrics(m, tr.spans, ops); err != nil {
		return nil, total, err
	}

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, total, err
	}
	if err := tr.writeJSONL(filepath.Join(traceDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, total, err
	}
	return m, total, nil
}

// blockResult holds per-op latencies (µs) of the traced pass by op kind.
type blockResult struct {
	traced, untraced map[opKind][]float64
	tally            tally
}

// overhead is traced P50 over untraced P50, averaged over the two op kinds.
func (b blockResult) overhead() float64 {
	var sum float64
	var n int
	for _, k := range []opKind{opObserve, opCheck} {
		if u := median(b.untraced[k]); u > 0 {
			sum += median(b.traced[k]) / u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runTraceBlocks replays ops through one serial client, switching the tracer
// on for every other block. The driver's own span (layerOp) is the root of
// each traced op.
func runTraceBlocks(r rig, tr *tracer, ops []op) blockResult {
	out := blockResult{traced: map[opKind][]float64{}, untraced: map[opKind][]float64{}}
	c := r.caller(0)
	for i := range ops {
		on := (i/traceBlock)%2 == 1
		tr.on.Store(on)
		tr.curOp.Store(int32(i))
		t0 := time.Now()
		start := tr.begin()
		got, err := c.do(&ops[i])
		tr.end(layerOp, noNode, start, 0)
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		out.tally.add(&ops[i], got, err)
		if on {
			out.traced[ops[i].kind] = append(out.traced[ops[i].kind], us)
		} else {
			out.untraced[ops[i].kind] = append(out.untraced[ops[i].kind], us)
		}
	}
	tr.on.Store(false)
	return out
}

// spanMetrics derives the seam-traced per-layer numbers. ops[i] is the op
// spans with op == i belong to.
func spanMetrics(m map[string]float64, spans []span, ops []op) error {
	self, parent := selfTimes(spans)
	if err := checkSelfTimes(spans, self, parent); err != nil {
		return err
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	type key struct {
		l layer
		k opKind
	}
	durs := map[key][]float64{}
	selfs := map[key][]float64{}
	var reqBytes, respBytes, writeBytes []float64
	legsPerOp := map[int32]int{}
	slowestLeg := map[int32]int64{}
	tracedOps := map[opKind]int{}
	inProcess, front := true, layerHandler
	for _, s := range spans {
		switch s.layer {
		case layerHandler:
			inProcess = false
		case layerProxy:
			front = layerProxy
		}
	}
	for i, s := range spans {
		if s.op < 0 {
			continue // standalone calls, accounted for separately
		}
		k := key{s.layer, ops[s.op].kind}
		durs[k] = append(durs[k], us(s.dur()))
		selfs[k] = append(selfs[k], us(self[i]))
		switch s.layer {
		case layerOp:
			tracedOps[ops[s.op].kind]++
		case layerRTT:
			reqBytes = append(reqBytes, float64(s.bytes))
		case layerLeg:
			legsPerOp[s.op]++
			if s.dur() > slowestLeg[s.op] {
				slowestLeg[s.op] = s.dur()
			}
		case layerWrite:
			writeBytes = append(writeBytes, float64(s.bytes))
		}
		if s.layer == front && parent[i] >= 0 {
			respBytes = append(respBytes, float64(s.bytes))
		}
	}
	both := func(src map[key][]float64, l layer) []float64 {
		return append(append([]float64(nil), src[key{l, opObserve}]...), src[key{l, opCheck}]...)
	}

	switch {
	case len(durs[key{layerEngine, opObserve}]) > 0:
		m["policy.observe_self_p50_us"] = median(selfs[key{layerEngine, opObserve}])
	case inProcess:
		m["policy.observe_self_p50_us"] = median(selfs[key{layerOp, opObserve}])
		m["policy.check_self_p50_us"] = median(selfs[key{layerOp, opCheck}])
	}
	m["store.journal_p50_us"] = median(both(durs, layerJournal))
	m["store.journal_self_p50_us"] = median(both(selfs, layerJournal))
	writes, syncs := both(durs, layerWrite), both(durs, layerSync)
	m["wal.write_p50_us"] = median(writes)
	m["wal.fsync_p50_us"] = median(syncs)
	m["wal.fsync_p95_us"] = pctOf(syncs, 95)
	if n := float64(tracedOps[opObserve]); n > 0 {
		var b float64
		for _, x := range writeBytes {
			b += x
		}
		m["wal.bytes_per_op"] = b / n
		m["wal.writes_per_op"] = float64(len(writes)) / n
		m["wal.fsyncs_per_op"] = float64(len(syncs)) / n
	}
	if !inProcess {
		// Between handler and engine sit the server and the admission
		// pipeline; the pipeline's share was timed standalone.
		m["tagserver.server_self_p50_us"] = math.Max(0, median(selfs[key{layerHandler, opObserve}])-m["admission.self_p50_us"])
		m["tagserver.client_self_p50_us"] = median(both(selfs, layerOp))
		m["tagserver.request_bytes_p50"] = median(reqBytes)
		m["tagserver.response_bytes_p50"] = median(respBytes)
		m["http.rtt_self_p50_us"] = median(both(selfs, layerRTT))
	}
	if front == layerProxy {
		m["partition.tier_self_p50_us"] = median(both(selfs, layerProxy))
		m["partition.leg_p50_us"] = median(both(durs, layerLeg))
		var slow []float64
		legs := map[opKind]float64{}
		for op, ns := range slowestLeg {
			slow = append(slow, us(ns))
			legs[ops[op].kind] += float64(legsPerOp[op])
		}
		m["partition.slowest_leg_p50_us"] = median(slow)
		if n := tracedOps[opObserve]; n > 0 {
			m["partition.legs_per_observe"] = legs[opObserve] / float64(n)
		}
		if n := tracedOps[opCheck]; n > 0 {
			m["partition.legs_per_check"] = legs[opCheck] / float64(n)
		}
	}
	return nil
}

// checkSelfTimes enforces the arithmetic the per-layer numbers rest on: no
// self time is negative, and the self times of an op's spans add up to its
// outermost span — exactly where children run one after another, and to no
// less where spans overlap: concurrent scatter legs, or a background
// group-commit fsync that happens to fall inside an op (each one's own work
// is counted although only the slowest delays the op).
func checkSelfTimes(spans []span, self []int64, parent []int) error {
	sum := make(map[int]int64) // root span -> total self time below it
	overlap := make(map[int]bool)
	for i := range spans {
		if self[i] < 0 {
			return fmt.Errorf("trace: %s span of op %d has self time %d ns", layerNames[spans[i].layer], spans[i].op, self[i])
		}
		root := i
		for parent[root] >= 0 {
			root = parent[root]
		}
		sum[root] += self[i]
		background := spans[i].layer == layerSync && parent[i] >= 0 && spans[parent[i]].layer != layerJournal
		if spans[i].layer == layerLeg || background {
			overlap[root] = true
		}
	}
	for root, total := range sum {
		d := spans[root].dur()
		if total < d || (!overlap[root] && total != d) {
			return fmt.Errorf("trace: self times of op %d sum to %d ns, its outermost span lasts %d ns", spans[root].op, total, d)
		}
	}
	return nil
}

// timeEach times n calls of fn one by one and returns the median duration in
// µs, or the first error a call returned.
func timeEach(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us), nil
}

// standaloneStages times the stages no seam isolates, one call at a time on
// the traced ops' own texts: normalisation, rolling hash, the whole
// fingerprint, a read-only index lookup, the TDM release check, and the
// admission pipeline called directly with the wrapped engine behind it.
func standaloneStages(m map[string]float64, r rig, tr *tracer, ops []op) error {
	mw := r.engines()[0]
	fpcfg := mw.Tracker().Params().Fingerprint
	var observes, checks []*op
	for i := range ops {
		if ops[i].kind == opObserve && len(observes) < standaloneCalls {
			observes = append(observes, &ops[i])
		}
		if ops[i].kind == opCheck && len(checks) < standaloneCalls {
			checks = append(checks, &ops[i])
		}
	}
	n := len(observes)

	var err error
	var buf []byte
	m["normalize.p50_us"], _ = timeEach(n, func(i int) error {
		buf = normalize.AppendText(buf[:0], observes[i].text)
		return nil
	})

	hasher, err := rollhash.New(fpcfg.NGram)
	if err != nil {
		return err
	}
	normalized := make([][]byte, n)
	for i, o := range observes {
		normalized[i] = normalize.AppendText(nil, o.text)
	}
	var grams []uint32
	m["rollhash.p50_us"], _ = timeEach(n, func(i int) error {
		grams = hasher.AppendNGrams(grams[:0], normalized[i])
		return nil
	})

	var sc fingerprint.Scratch
	hashes := make([][]uint32, n)
	m["fingerprint.compute_p50_us"], err = timeEach(n, func(i int) error {
		fp, err := sc.ComputeShared(observes[i].text, fpcfg)
		if err == nil {
			hashes[i] = append([]uint32(nil), fp.Hashes()...)
		}
		return err
	})
	if err != nil {
		return err
	}
	var textBytes, hashCount, unchanged int
	lastDigest := map[segment.ID]uint64{}
	for i, o := range observes {
		textBytes += len(o.text)
		hashCount += len(hashes[i])
		d := fingerprint.FromSortedHashes(hashes[i]).Digest()
		if prev, ok := lastDigest[o.seg]; ok && prev == d {
			unchanged++
		}
		lastDigest[o.seg] = d
	}
	if textBytes > 0 {
		m["fingerprint.hashes_per_kb"] = float64(hashCount) / float64(textBytes) * 1024
		m["disclosure.unchanged_fp_ratio"] = float64(unchanged) / float64(n)
	}

	db := mw.Tracker().Paragraphs()
	var refs []index.OldestRef
	m["index.lookup_p50_us"], _ = timeEach(n, func(i int) error {
		refs = db.AppendOldestRefs(hashes[i], refs[:0])
		return nil
	})

	registry := mw.Registry()
	m["tdm.check_p50_us"], err = timeEach(n, func(i int) error {
		_, _, err := registry.CheckRelease(observes[i].seg, svcNotes)
		return err
	})
	if err != nil {
		return err
	}

	if p := r.pipeline(); p != nil { // a single node behind its server: node-edit
		// The server calls the engine's check directly (no seam), so time
		// the same call on the node's engine.
		engine := mw.Engine()
		m["policy.check_self_p50_us"], err = timeEach(len(checks), func(i int) error {
			_, err := engine.CheckText(checks[i].text, checks[i].service)
			return err
		})
		if err != nil {
			return err
		}

		calls := n
		if calls > 500 {
			calls = 500
		}
		before := len(tr.spans)
		tr.curOp.Store(-1)
		tr.on.Store(true)
		ctx := context.Background()
		for i := 0; i < calls && err == nil; i++ {
			seg := segment.ID(fmt.Sprintf("docs/bench-admission#p%d", i))
			start := tr.begin()
			_, err = p.Observe(ctx, svcDocs, seg, segment.GranularityParagraph, fingerprint.FromSortedHashes(hashes[i]))
			tr.end(layerOp, noNode, start, 0)
		}
		tr.on.Store(false)
		if err != nil {
			return fmt.Errorf("admission standalone: %w", err)
		}
		sub := tr.spans[before:]
		self, _ := selfTimes(sub)
		var pipeSelf []float64
		for i, s := range sub {
			if s.layer == layerOp {
				pipeSelf = append(pipeSelf, float64(self[i])/1e3)
			}
		}
		m["admission.self_p50_us"] = median(pipeSelf)
		st := p.Stats()
		submitted := float64(st.Interactive.Submitted + st.Bulk.Submitted)
		shed := float64(st.Interactive.Shed + st.Bulk.Shed)
		if submitted > 0 {
			m["admission.coalesced_ratio"] = float64(st.Folds) / submitted
			m["admission.shed_ratio"] = shed / (submitted + shed)
		}
	}
	return nil
}
