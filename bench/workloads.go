package main

import (
	"github.com/lsds/browserflow/internal/wal"
)

// runSeconds is BENCHMARK.json's run_seconds, the only --seconds accepted:
// the op counts below are calibrated on the 2-core reference box so that the
// timed phases of every workload (ingest, latency, closed, persist+recover)
// take about that long in total, and they are frozen. Phases stop on op
// count, never on a timer, so two runs do the same work.
const runSeconds = 20

// gatedMetrics are the end-to-end metrics BENCHMARK.json puts a bound on and
// a --trace 0 run reports. The other seven of runEndToEnd's ten numbers did
// not repeat within a tenth on the reference box (README.md, "Recorded
// selfcheck"); a --trace 1 run reports them under the bench. prefix.
var gatedMetrics = []string{"setup_s", "bytes_per_hash", "disk_bytes_per_hash"}

// workload freezes everything about one benchmark workload. The values are
// constants, not flags: two runs of one commit must do the same work.
type workload struct {
	name string
	why  string

	newRig func(rigConfig) (rig, error)
	fsync  wal.SyncPolicy // zero for the journal-less rig

	// corpusBytes is the corpus text ingested before the request phases.
	corpusBytes int

	// stream generates the request phases' ops; observeShare is the share
	// of writes in it.
	stream       func(seed int64, corpus []corpusPar, n int, observeShare float64) []op
	observeShare float64

	// latencyOps ops run in the latency phase on one closed-loop caller,
	// closedOps ops then run closed-loop on clients callers.
	latencyOps int
	closedOps  int

	// verifyStride: editors e with e % verifyStride == 0 have every op
	// compared with the oracle. 1 verifies all; the in-process rigs run
	// hundreds of thousands of ops, and replaying them all serially would
	// cost as much as the measurement.
	verifyStride int

	// recoverReps timed reopen cycles; recover_s is their median.
	recoverReps int

	// traceOps ops from the head of the stream are replayed serially through
	// the wrapped rig of a traced run, alternating untraced and traced blocks.
	traceOps int
}

// clients is C: the HTTP rigs' keep-alive connections and the closed phase's
// callers, one per core of the reference box.
const clients = 2

var workloads = []workload{
	{
		name:   "engine-edit",
		why:    "In-process middleware, no journal, keystroke edits: the hot cache-friendly regime where fingerprint, index and policy do all the work; wal, store, admission, tagserver, partition do none",
		newRig: newEngineRig, corpusBytes: 20 << 20,
		stream: genEditStream, observeShare: 0.7,
		latencyOps: 200_000, closedOps: 200_000,
		verifyStride: 8, recoverReps: 1, traceOps: 40_000,
	},
	{
		name:   "node-edit",
		why:    "One real node wired like bftagd over HTTP, fsync=always: observes are dominated by wal/store, checks by tagserver JSON, admission and net/http; an engine-only speed-up must show no change",
		newRig: newNodeRig, fsync: wal.SyncAlways, corpusBytes: 20 << 20,
		stream: genEditStream, observeShare: 0.7,
		latencyOps: 12_000, closedOps: 20_000,
		verifyStride: 1, recoverReps: 3, traceOps: 4000,
	},
	{
		name:   "corpus",
		why:    "Engine plus durable store (fsync=interval) in-process on a corpus far beyond the last-level cache: cold lookups, novel-segment pastes, bulk group commit, checkpoint, recovery, space at scale",
		newRig: newDurableRig, fsync: wal.SyncInterval, corpusBytes: 24 << 20,
		stream: genPasteStream, observeShare: 0.5,
		latencyOps: 60_000, closedOps: 60_000,
		verifyStride: 8, recoverReps: 1, traceOps: 12_000,
	},
	{
		name:   "cluster",
		why:    "Three real partition nodes behind the routing tier: a check scatters to all three and waits for the slowest leg, a changed observe pays probe, scatter and apply; partition works only here",
		newRig: newClusterRig, fsync: wal.SyncInterval, corpusBytes: 7 << 20,
		stream: genEditStream, observeShare: 0.5,
		latencyOps: 11_000, closedOps: 18_000,
		verifyStride: 1, recoverReps: 5, traceOps: 3000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
