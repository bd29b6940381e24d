package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// ReplicaOptions configures OpenReplica.
type ReplicaOptions struct {
	// Durable describes the node's durable directory exactly as
	// store.OpenDurable would be given it. While a replica, the node uses
	// Dir, FS, Key, KeepCheckpoints and Logf for the mirrored WAL segments
	// and its local checkpoints, and fsyncs the mirror after every applied
	// batch unless Fsync is wal.SyncNone. Promote opens this very value, so
	// the promoted primary runs under the storage policy (fsync, checkpoint
	// and scrub cadence, disk-fault policy) the node was started with.
	Durable store.DurableOptions

	// HTTPClient dials the primary; nil uses a default client. Its
	// transport may be wrapped (resilience middleware, fault injection).
	// Long-poll requests get per-request contexts, so Timeout should be 0.
	HTTPClient *http.Client

	// PollWait is the server-side long-poll budget per stream call
	// (default 10s).
	PollWait time.Duration

	// RetryBackoff is the pause after a failed round to the primary
	// (default 200ms).
	RetryBackoff time.Duration

	// Obs, when set, receives the stream counters this replica owns
	// (batches, records, bytes, confirmed divergences, apply latency) and
	// "replica.apply" spans attributed to the trace IDs journalled inside
	// streamed observe records. Lag, position and role are Status fields;
	// whoever is handed Status exports them.
	Obs *obs.Obs

	// Split makes this a filtered replica for a partition split: the
	// bootstrap snapshot is restricted to the inclusive key range, the
	// mirror still copies the primary's WAL bytes verbatim but streamed
	// records materialise tracker state only for in-range segments
	// (registry effects stay global; Durable.SegmentFilter is set to the
	// range, so promotion and later restarts keep filtering), and
	// digest-based anti-entropy is disabled — a filtered replica's state
	// digest is intentionally not the primary's. Nil replicates everything.
	Split *SplitRange
}

// SplitRange is the inclusive partition-key range a filtered replica
// materialises (see segment.Key).
type SplitRange struct {
	Lo, Hi uint32
}

// Contains reports whether partition key k falls in the range.
func (sr SplitRange) Contains(k uint32) bool { return k >= sr.Lo && k <= sr.Hi }

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.Durable.FS == nil {
		o.Durable.FS = wal.OSFS{}
	}
	if o.Durable.KeepCheckpoints <= 0 {
		o.Durable.KeepCheckpoints = store.DefaultKeepCheckpoints
	}
	if o.Durable.Logf == nil {
		o.Durable.Logf = func(string, ...interface{}) {}
	}
	if sr := o.Split; sr != nil {
		split := *sr
		o.Durable.SegmentFilter = func(seg segment.ID) bool {
			return split.Contains(segment.Key(seg))
		}
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
	return o
}

// ReplicaStatus is a point-in-time replica summary (exported on /healthz
// and /v1/repl/status).
type ReplicaStatus struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Primary        string `json:"primary,omitempty"`
	Position       string `json:"position"`
	LagRecords     int64  `json:"lag_records"`
	LagBytes       int64  `json:"lag_bytes"`
	AppliedRecords int64  `json:"appliedRecords"`
	Bootstraps     int64  `json:"bootstraps"`
	Divergences    int64  `json:"divergences"`
	Connected      bool   `json:"connected"`
	LastError      string `json:"lastError,omitempty"`
}

// Replica byte-mirrors a primary's WAL and applies every streamed record
// through the same idempotent machinery crash recovery uses. Reads are
// served from the live engine; writes are fenced off by the Guard.
type Replica struct {
	node     *Node
	engine   *policy.Engine
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	opts     ReplicaOptions
	logf     func(format string, args ...interface{}) // opts.Durable.Logf
	mirror   *mirror

	mu          sync.Mutex
	applier     *store.Applier
	pos         wal.Pos
	lag         int64
	lagBytes    int64
	applied     int64
	bootstraps  int64
	divergences int64
	connected   bool
	lastErr     string
	lastCkptSeg uint64

	runMu   sync.Mutex
	cancel  context.CancelFunc
	done    chan struct{}
	stopped bool

	// Resolved once in OpenReplica (detached no-ops without opts.Obs), so
	// the stream loop never takes the registry lock.
	batchCtr, recordCtr, byteCtr, divergeCtr *obs.Counter
	applyHist                                *obs.Histogram
}

// OpenReplica recovers local replica state (newest checkpoint + mirrored
// WAL replay, the store.Durable recovery discipline) into the engine's
// tracker and registry, and returns a Replica positioned at the end of
// its local mirror. Call Start to begin streaming.
func OpenReplica(node *Node, engine *policy.Engine, opts ReplicaOptions) (*Replica, error) {
	opts = opts.withDefaults()
	dopts := opts.Durable
	if dopts.Dir == "" {
		return nil, fmt.Errorf("replication: replica Durable.Dir is required")
	}
	if err := dopts.FS.MkdirAll(dopts.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("replication: mkdir replica dir: %w", err)
	}
	r := &Replica{
		node:     node,
		engine:   engine,
		tracker:  engine.Tracker(),
		registry: engine.Registry(),
		opts:     opts,
		logf:     dopts.Logf,
		mirror:   newMirror(dopts.FS, dopts.Dir, dopts.Fsync != wal.SyncNone),
	}
	if err := r.recoverLocal(); err != nil {
		return nil, err
	}
	reg := opts.Obs.Registry()
	r.batchCtr = reg.Counter("bf_repl_batches_total", "Stream batches applied.")
	r.recordCtr = reg.Counter("bf_repl_records_total", "Streamed records applied.")
	r.byteCtr = reg.Counter("bf_repl_bytes_total", "Streamed WAL bytes mirrored.")
	r.divergeCtr = reg.Counter("bf_repl_divergences_total", "State divergences the primary confirmed against this replica.")
	r.applyHist = reg.Histogram("bf_repl_apply_seconds", "Mirror+apply latency per stream batch.", nil)
	return r, nil
}

// newApplier builds a record applier wired to the observability span
// ring (when configured), so streamed observe records that carry a
// journalled trace ID emit "replica.apply" spans.
func (r *Replica) newApplier() (*store.Applier, error) {
	applier, err := store.NewApplier(r.tracker, r.registry)
	if err != nil {
		return nil, err
	}
	applier.SetTraceLog(r.opts.Obs.Traces())
	applier.SetSegmentFilter(r.opts.Durable.SegmentFilter)
	return applier, nil
}

// recoverLocal validates the mirror (truncating a torn tail), restores
// the newest local checkpoint and replays the mirrored records on top.
// An unreadable or corrupt mirror resets to the bootstrap state (zero
// position); a record that decodes but fails to apply is an error.
func (r *Replica) recoverLocal() error {
	info, err := wal.OpenTail(r.opts.Durable.FS, r.opts.Durable.Dir, 0, r.logf)
	if err != nil {
		r.logf("replication: local mirror invalid (%v); will re-bootstrap", err)
		return r.mirror.wipe()
	}

	barrier, name, corrupt, err := store.RecoverNewestCheckpoint(r.opts.Durable.FS, r.opts.Durable.Dir, r.opts.Durable.Key, r.tracker, r.registry, r.logf)
	if err != nil {
		return fmt.Errorf("replication: load local checkpoint: %w", err)
	}
	if corrupt > 0 {
		r.logf("replication: skipped %d corrupt local checkpoints", corrupt)
	}
	if name == "" {
		// Without a checkpoint the mirrored segments are not provably a
		// full history; start over from a fresh snapshot.
		if len(info.Segments) > 0 {
			r.logf("replication: mirror has segments but no checkpoint; re-bootstrapping")
			return r.mirror.wipe()
		}
		return nil
	}

	applier, err := r.newApplier()
	if err != nil {
		return fmt.Errorf("replication: build applier: %w", err)
	}
	var applyErr error
	err = wal.Replay(r.opts.Durable.FS, r.opts.Durable.Dir, barrier, 0, func(_ uint64, rec wal.Record) error {
		applyErr = applier.Apply(rec)
		return applyErr
	})
	if applyErr != nil {
		return fmt.Errorf("replication: replay mirrored record: %w", applyErr)
	}
	if err != nil {
		r.logf("replication: mirror replay failed (%v); re-bootstrapping", err)
		return r.mirror.wipe()
	}
	applier.RestoreAuditTimestamps()

	// Resume at the mirror's end, floored at the checkpoint barrier (a
	// checkpoint with no mirrored segments yet resumes at the barrier).
	pos := info.End
	if floor := (wal.Pos{Segment: barrier, Offset: wal.HeaderSize}); pos.Less(floor) {
		pos = floor
	}

	r.applier = applier
	r.pos = pos
	r.applied = applier.Applied()
	r.lastCkptSeg = barrier
	r.logf("replication: recovered from %s + %d mirrored records; resuming at %s",
		name, r.applied, pos)
	return nil
}

// Start launches the streaming loop. It is a no-op when already running.
func (r *Replica) Start() {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.cancel != nil || r.stopped {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.done = make(chan struct{})
	go r.run(ctx)
}

// Stop halts the streaming loop (idempotent).
func (r *Replica) Stop() {
	r.runMu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel = nil
	r.stopped = true
	r.runMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// run is the replication loop: bootstrap when the position is zero,
// otherwise stream, mirror and apply until cancelled.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	for ctx.Err() == nil {
		r.mu.Lock()
		pos := r.pos
		r.mu.Unlock()

		var err error
		if pos.IsZero() {
			err = r.bootstrap(ctx)
		} else {
			err = r.streamOnce(ctx, pos)
		}
		if err == nil || ctx.Err() != nil {
			continue
		}

		r.mu.Lock()
		r.connected = false
		r.lastErr = err.Error()
		r.mu.Unlock()
		if _, ok := err.(*errDiverged); ok {
			r.logf("replication: %v; re-bootstrapping", err)
			r.resetForBootstrap()
			continue
		}
		r.logf("replication: %v (retrying in %s)", err, r.opts.RetryBackoff)
		select {
		case <-ctx.Done():
		case <-time.After(r.opts.RetryBackoff):
		}
	}
}

// resetForBootstrap wipes the local mirror and zeroes the position so the
// next loop iteration bootstraps from a fresh snapshot.
func (r *Replica) resetForBootstrap() {
	if err := r.mirror.wipe(); err != nil {
		r.logf("replication: wiping mirror: %v", err)
	}
	r.mu.Lock()
	r.pos = wal.Pos{}
	r.applier = nil
	r.lastCkptSeg = 0
	r.mu.Unlock()
}

// newRequest builds a replication request against the current primary,
// stamped with the highest term this node has observed.
func (r *Replica) newRequest(ctx context.Context, method, path, query string) (*http.Request, error) {
	primary := r.node.Primary()
	if primary == "" {
		return nil, fmt.Errorf("replication: no known primary")
	}
	url := primary + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderTerm, strconv.FormatUint(r.node.Term(), 10))
	return req, nil
}

// observeResponseTerm folds a response's term and primary headers into
// the node's fencing state.
func (r *Replica) observeResponseTerm(resp *http.Response) {
	termHdr := resp.Header.Get(HeaderTerm)
	if termHdr == "" {
		return
	}
	term, err := strconv.ParseUint(termHdr, 10, 64)
	if err != nil {
		return
	}
	primary := resp.Header.Get(HeaderPrimary)
	if _, err := r.node.ObserveTerm(term, primary); err != nil {
		r.logf("replication: persisting observed term: %v", err)
	}
	if primary != "" {
		r.node.SetPrimary(primary)
	}
}

// bootstrap wipes the local mirror and rebuilds it from the primary's
// snapshot endpoint: restore state wholesale, persist the snapshot as a
// local checkpoint, and position the cursor at the snapshot's WAL epoch
// barrier. The body is a BFLOWSNB image: bulk-restored, then persisted
// verbatim.
func (r *Replica) bootstrap(ctx context.Context) error {
	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	query := ""
	if sr := r.opts.Split; sr != nil {
		query = fmt.Sprintf("lo=%d&hi=%d", sr.Lo, sr.Hi)
	}
	req, err := r.newRequest(rctx, http.MethodGet, "/v1/repl/snapshot", query)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", SnapshotContentType)
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("replication: fetch snapshot: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
		resp.Body.Close()
	}()
	r.observeResponseTerm(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: snapshot endpoint: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, SnapshotContentType) {
		return fmt.Errorf("replication: snapshot endpoint answered %q, want %s", ct, SnapshotContentType)
	}

	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("replication: read snapshot body: %w", err)
	}
	if err := r.mirror.wipe(); err != nil {
		return err
	}
	meta, err := store.RestoreBytes("primary snapshot", blob, r.tracker, r.registry)
	if err != nil {
		return fmt.Errorf("replication: restore snapshot: %w", err)
	}
	if meta.WALSeg == 0 {
		return fmt.Errorf("replication: snapshot carries no WAL barrier")
	}
	barrier := meta.WALSeg
	// Persist the received image verbatim — same bytes, no re-encode.
	ckpt := filepath.Join(r.opts.Durable.Dir, store.CheckpointName(barrier))
	if err := store.SaveCheckpointBytes(r.opts.Durable.FS, ckpt, blob, r.opts.Durable.Key); err != nil {
		return fmt.Errorf("replication: save local checkpoint: %w", err)
	}
	applier, err := r.newApplier()
	if err != nil {
		return err
	}

	r.mu.Lock()
	r.applier = applier
	r.pos = wal.Pos{Segment: barrier, Offset: wal.HeaderSize}
	r.applied = 0
	r.bootstraps++
	r.lastCkptSeg = barrier
	r.connected = true
	r.lastErr = ""
	r.mu.Unlock()
	r.logf("replication: bootstrapped from snapshot at barrier %d", barrier)
	return nil
}

// streamOnce performs one stream round: long-poll the primary from pos,
// verify and mirror the returned frame bytes, then apply them.
func (r *Replica) streamOnce(ctx context.Context, pos wal.Pos) error {
	waitMS := strconv.FormatInt(r.opts.PollWait.Milliseconds(), 10)
	rctx, cancel := context.WithTimeout(ctx, r.opts.PollWait+30*time.Second)
	defer cancel()
	req, err := r.newRequest(rctx, http.MethodGet, "/v1/repl/stream", "from="+pos.String()+"&wait="+waitMS)
	if err != nil {
		return err
	}
	// Attach the local state digest: when this round finds us caught up,
	// the primary compares it against its own and orders a re-bootstrap
	// if our in-memory state has silently diverged. A filtered replica
	// never claims a digest — holding a slice of the keyspace is not
	// divergence.
	if r.opts.Split == nil {
		req.Header.Set(HeaderDigest, fmt.Sprintf("%016x", r.tracker.Digest().Combined))
	}
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("replication: stream: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10)) //nolint:errcheck
		resp.Body.Close()
	}()
	r.observeResponseTerm(resp)

	switch resp.StatusCode {
	case http.StatusOK:
		return r.applyBatch(pos, resp)

	case http.StatusNoContent:
		// Caught up. The server may have normalised our position (e.g.
		// rolled it over a sealed segment boundary).
		r.mu.Lock()
		r.connected = true
		r.lastErr = ""
		r.lag = 0
		r.lagBytes = 0
		if next := resp.Header.Get(HeaderNextPos); next != "" {
			if p, perr := wal.ParsePos(next); perr == nil && !p.IsZero() {
				r.pos = p
			}
		}
		r.mu.Unlock()
		return nil

	case http.StatusGone:
		// Our position fell off the primary's log (checkpoint-truncated
		// below, or we are ahead of a newly recovered primary) — or the
		// primary confirmed our state digest diverged from its own.
		if resp.Header.Get(HeaderDiverged) != "" {
			r.mu.Lock()
			r.divergences++
			r.mu.Unlock()
			r.divergeCtr.Inc()
			r.logf("replication: primary confirmed state divergence at %s; re-bootstrapping", pos)
		} else {
			r.logf("replication: position %s gone on primary; re-bootstrapping", pos)
		}
		r.resetForBootstrap()
		return nil

	case http.StatusMisdirectedRequest:
		// Talking to a non-primary; headers already repointed us.
		return fmt.Errorf("replication: peer is not primary (term %s)", resp.Header.Get(HeaderTerm))

	default:
		return fmt.Errorf("replication: stream: status %d", resp.StatusCode)
	}
}

// applyBatch mirrors and applies one 200 stream response. The byte-count
// header guards against truncated bodies: only the valid frame prefix is
// mirrored and applied, and the cursor advances exactly past it.
func (r *Replica) applyBatch(pos wal.Pos, resp *http.Response) error {
	reg := r.opts.Obs.Registry()
	applyStart := reg.Now()
	startHdr := resp.Header.Get(HeaderPos)
	start := pos
	if startHdr != "" {
		p, err := wal.ParsePos(startHdr)
		if err != nil {
			return fmt.Errorf("replication: bad %s header: %v", HeaderPos, err)
		}
		start = p
	}
	want := -1
	if v := resp.Header.Get(HeaderBatchBytes); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("replication: bad %s header", HeaderBatchBytes)
		}
		want = n
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, wal.DefaultMaxRecordBytes+DefaultMaxBatchBytes))
	if err != nil {
		// Partial read: fall through with what we have; DecodeFrames
		// keeps only the valid prefix.
		r.logf("replication: stream body: %v (keeping valid prefix)", err)
	}
	if want >= 0 && len(body) > want {
		body = body[:want]
	}

	// Decode the valid frame prefix. A truncated or garbled tail (chaos
	// transport) is simply not applied; the next round re-fetches it.
	recs, used := wal.DecodeFrames(body, 0)
	if used == 0 {
		if want > 0 {
			return fmt.Errorf("replication: stream batch carried no valid frames (%d/%d bytes)", len(body), want)
		}
		return nil
	}

	// Mirror bytes BEFORE applying: on a crash between the two, recovery
	// replays the mirrored record through the same idempotent path.
	next, err := r.mirror.appendAt(start, body[:used])
	if err != nil {
		return err
	}

	r.mu.Lock()
	applier := r.applier
	r.mu.Unlock()
	if applier == nil {
		return fmt.Errorf("replication: no applier (not bootstrapped)")
	}
	for _, rec := range recs {
		if err := applier.Apply(rec); err != nil {
			return fmt.Errorf("replication: apply streamed record: %w", err)
		}
	}
	applier.RestoreAuditTimestamps()

	lag := int64(0)
	if v := resp.Header.Get(HeaderLag); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			lag = n
		}
	}
	lagBytes := int64(0)
	if v := resp.Header.Get(HeaderLagBytes); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			lagBytes = n
		}
	}
	if used < len(body) || (want >= 0 && used < want) {
		// We dropped a torn tail; the primary still has those records.
		lag++
		if want >= 0 && used < want {
			lagBytes += int64(want - used)
		}
	}

	r.mu.Lock()
	r.pos = next
	r.applied += int64(len(recs))
	r.lag = lag
	r.lagBytes = lagBytes
	r.connected = true
	r.lastErr = ""
	ckptDue := next.Segment > r.lastCkptSeg
	r.mu.Unlock()

	r.batchCtr.Inc()
	r.recordCtr.Add(uint64(len(recs)))
	r.byteCtr.Add(uint64(used))
	r.applyHist.Observe(reg.Since(applyStart))

	if ckptDue {
		if err := r.checkpointLocal(next.Segment); err != nil {
			r.logf("replication: local checkpoint: %v", err)
		}
	}
	return nil
}

// checkpointLocal captures the replica's state as a local checkpoint at
// barrier seg (every mirrored segment below seg is fully applied), then
// prunes old checkpoints. Mirrored segments are never pruned: the mirror
// stays a literal byte prefix of the primary's log.
func (r *Replica) checkpointLocal(seg uint64) error {
	blob, err := store.CaptureBytes(r.tracker, r.registry, seg)
	if err != nil {
		return err
	}
	path := filepath.Join(r.opts.Durable.Dir, store.CheckpointName(seg))
	if err := store.SaveCheckpointBytes(r.opts.Durable.FS, path, blob, r.opts.Durable.Key); err != nil {
		return err
	}
	r.mu.Lock()
	r.lastCkptSeg = seg
	r.mu.Unlock()
	if err := store.PruneCheckpoints(r.opts.Durable.FS, r.opts.Durable.Dir, seg, r.opts.Durable.KeepCheckpoints); err != nil {
		r.logf("replication: prune local checkpoints: %v", err)
	}
	return nil
}

// Status snapshots the replica's replication state.
func (r *Replica) Status() ReplicaStatus {
	role, term, primary := r.node.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		Role:           role.String(),
		Term:           term,
		Primary:        primary,
		Position:       r.pos.String(),
		LagRecords:     r.lag,
		LagBytes:       r.lagBytes,
		AppliedRecords: r.applied,
		Bootstraps:     r.bootstraps,
		Divergences:    r.divergences,
		Connected:      r.connected,
		LastError:      r.lastErr,
	}
}

// Promote stops streaming, bumps the node's term to take the primary
// role, and opens the durability subsystem over the local mirror with
// the DurableOptions the node was started with (a split target's segment
// filter included: the mirror holds the source's WAL bytes verbatim, so
// recovery — and any later restart over this directory — must keep
// filtering index updates to the moved range). The
// recovery pass rebuilds state from the newest local checkpoint plus the
// mirrored WAL — exactly what this replica had applied — and new writes
// land in a fresh segment above the mirrored prefix, so the old
// primary's log remains a byte prefix of the new primary's. The returned
// Durable is installed as the engine's journal before Promote returns.
func (r *Replica) Promote() (*store.Durable, uint64, error) {
	r.Stop()
	term, err := r.node.Promote()
	if err != nil {
		return nil, 0, err
	}
	if err := r.mirror.closeFile(); err != nil {
		return nil, 0, fmt.Errorf("replication: close mirror: %w", err)
	}
	durable, err := store.OpenDurable(r.opts.Durable, r.tracker, r.registry)
	if err != nil {
		return nil, 0, fmt.Errorf("replication: open durable store after promotion: %w", err)
	}
	r.engine.SetJournal(durable)
	r.logf("replication: promoted at term %d; durable store open over mirror", term)
	return durable, term, nil
}
