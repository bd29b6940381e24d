// replica.go is the consuming side of WAL shipping: the stream loop, the
// snapshot fetch, the term / lag / digest headers and the status a standby
// reports. Everything the standby keeps — segments, checkpoints, position,
// recovery, scrubbing, disk-fault handling — is a store.Durable in the
// follower role; this file only feeds it (Bootstrap, Follow) and, at
// promotion, flips its role.

package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// ReplicaOptions configures OpenReplica.
type ReplicaOptions struct {
	// Durable describes the node's durable directory exactly as
	// store.OpenDurable would be given it, and every field of it applies
	// from the start: OpenReplica opens this value as a follower, so the
	// standby checkpoints, prunes, scrubs and degrades on disk faults as a
	// primary under the same flags would, and fsyncs every streamed batch
	// before applying it unless Fsync is wal.SyncNone. Promotion flips the
	// role of that same store; nothing is reopened.
	//
	// Durable.KeyRange makes this a partition split's filtered standby: it
	// bootstraps from a snapshot restricted to the range, materialises
	// tracker state only for in-range segments of the verbatim stream, and
	// claims no anti-entropy digest — holding a slice of the keyspace is
	// not divergence.
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
	// whoever is handed Status exports them. Its clock paces the back-off
	// and bounds each request (the real one when nil).
	Obs *obs.Obs
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.Durable.Logf == nil {
		o.Durable.Logf = func(string, ...interface{}) {}
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

// Replica follows a primary: it feeds the primary's WAL stream, verbatim,
// to a store.Durable in the follower role, which writes and applies it.
// Reads are served from the live engine; writes are fenced off by the
// Guard.
type Replica struct {
	node    *Node
	engine  *policy.Engine
	opts    ReplicaOptions
	logf    func(format string, args ...interface{}) // opts.Durable.Logf
	durable *store.Durable

	mu          sync.Mutex
	rebootstrap bool // the primary (or the store) ordered a fresh snapshot
	lag         int64
	lagBytes    int64
	applied     int64
	bootstraps  int64
	divergences int64
	connected   bool
	lastErr     string

	runMu   sync.Mutex
	cancel  context.CancelFunc
	done    chan struct{}
	stopped bool

	promoteMu sync.Mutex // one Promote at a time: a failing one uninstalls the journal

	// Resolved once in OpenReplica (detached no-ops without opts.Obs), so
	// the stream loop never takes the registry lock.
	batchCtr, recordCtr, byteCtr, divergeCtr *obs.Counter
	applyHist                                *obs.Histogram
}

// OpenReplica opens opts.Durable as a follower over the engine's tracker
// and registry (store.OpenFollower: newest checkpoint + replay of the
// segments streamed so far) and returns a Replica positioned at the end of
// that log. Call Start to begin streaming; the caller closes Durable() at
// shutdown, as it would a primary's store.
func OpenReplica(node *Node, engine *policy.Engine, opts ReplicaOptions) (*Replica, error) {
	opts = opts.withDefaults()
	durable, err := store.OpenFollower(opts.Durable, engine.Tracker(), engine.Registry(), opts.Obs.Traces())
	if err != nil {
		return nil, fmt.Errorf("replication: open replica dir: %w", err)
	}
	r := &Replica{
		node:    node,
		engine:  engine,
		opts:    opts,
		logf:    opts.Durable.Logf,
		durable: durable,
		applied: durable.Stats().Recovery.RecordsReplayed,
	}
	if pos := durable.Position(); !pos.IsZero() {
		r.logf("replication: recovered %d streamed records; resuming at %s", r.applied, pos)
	}
	reg := opts.Obs.Registry()
	r.batchCtr = reg.Counter("bf_repl_batches_total", "Stream batches applied.")
	r.recordCtr = reg.Counter("bf_repl_records_total", "Streamed records applied.")
	r.byteCtr = reg.Counter("bf_repl_bytes_total", "Streamed WAL bytes mirrored.")
	r.divergeCtr = reg.Counter("bf_repl_divergences_total", "State divergences the primary confirmed against this replica.")
	r.applyHist = reg.Histogram("bf_repl_apply_seconds", "Mirror+apply latency per stream batch.", nil)
	return r, nil
}

// Durable returns the node's durable store: a follower while the node is a
// standby, the primary's journal once Promote has returned.
func (r *Replica) Durable() *store.Durable { return r.durable }

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

// Stop halts the streaming loop for good (idempotent).
func (r *Replica) Stop() { r.halt(true) }

// halt stops the streaming loop and reports whether it was running; a
// final halt also refuses later Starts.
func (r *Replica) halt(final bool) (wasRunning bool) {
	r.runMu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel = nil
	r.stopped = r.stopped || final
	r.runMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	return cancel != nil
}

// run is the replication loop: bootstrap when the store holds nothing (or
// a fresh snapshot was ordered), otherwise stream until cancelled.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	for ctx.Err() == nil {
		pos := r.durable.Position()
		r.mu.Lock()
		rebootstrap := r.rebootstrap
		r.mu.Unlock()

		var err error
		if pos.IsZero() || rebootstrap {
			err = r.bootstrap(ctx)
		} else {
			err = r.streamOnce(ctx, pos)
		}
		if err == nil || ctx.Err() != nil {
			continue
		}

		stale := errors.Is(err, wal.ErrDiverged)
		r.mu.Lock()
		r.connected = false
		r.lastErr = err.Error()
		r.rebootstrap = r.rebootstrap || stale
		r.mu.Unlock()
		if stale {
			r.logf("replication: %v; re-bootstrapping", err)
			continue
		}
		r.logf("replication: %v (retrying in %s)", err, r.opts.RetryBackoff)
		backoff := r.opts.Obs.Clock().NewTimer(r.opts.RetryBackoff)
		select {
		case <-ctx.Done():
		case <-backoff.C():
		}
		backoff.Stop()
	}
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

// bootstrap fetches the primary's snapshot — a BFLOWSNB image — and hands
// it to the store, which replaces everything it holds with it and stands
// at the image's WAL epoch barrier.
func (r *Replica) bootstrap(ctx context.Context) error {
	rctx, cancel := r.opts.Obs.Clock().WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	query := ""
	if kr := r.opts.Durable.KeyRange; kr != nil {
		query = fmt.Sprintf("lo=%d&hi=%d", kr.Lo, kr.Hi)
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
	barrier, err := r.durable.Bootstrap(blob)
	if err != nil {
		return fmt.Errorf("replication: bootstrap from snapshot: %w", err)
	}

	r.mu.Lock()
	r.rebootstrap = false
	r.applied = 0
	r.bootstraps++
	r.connected = true
	r.lastErr = ""
	r.mu.Unlock()
	r.logf("replication: bootstrapped from snapshot at barrier %d", barrier)
	return nil
}

// streamOnce performs one stream round: long-poll the primary from pos
// and hand the returned frame bytes to the store.
func (r *Replica) streamOnce(ctx context.Context, pos wal.Pos) error {
	waitMS := strconv.FormatInt(r.opts.PollWait.Milliseconds(), 10)
	rctx, cancel := r.opts.Obs.Clock().WithTimeout(ctx, r.opts.PollWait+30*time.Second)
	defer cancel()
	req, err := r.newRequest(rctx, http.MethodGet, "/v1/repl/stream", "from="+pos.String()+"&wait="+waitMS)
	if err != nil {
		return err
	}
	// Attach the local state digest: when this round finds us caught up,
	// the primary compares it against its own and orders a re-bootstrap
	// if our in-memory state has silently diverged. A filtered replica
	// never claims a digest.
	if r.opts.Durable.KeyRange == nil {
		req.Header.Set(HeaderDigest, fmt.Sprintf("%016x", r.durable.StateDigest().Combined))
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
		// Caught up. The server may have normalised our position (rolled
		// it over a sealed segment boundary): follow it there.
		if p, perr := wal.ParsePos(resp.Header.Get(HeaderNextPos)); perr == nil && !p.IsZero() && p != pos {
			if _, _, err := r.durable.Follow(p, nil); err != nil {
				return err
			}
		}
		r.mu.Lock()
		r.connected = true
		r.lastErr = ""
		r.lag = 0
		r.lagBytes = 0
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
		r.mu.Lock()
		r.rebootstrap = true
		r.mu.Unlock()
		return nil

	case http.StatusMisdirectedRequest:
		// Talking to a non-primary; headers already repointed us.
		return fmt.Errorf("replication: peer is not primary (term %s)", resp.Header.Get(HeaderTerm))

	default:
		return fmt.Errorf("replication: stream: status %d", resp.StatusCode)
	}
}

// applyBatch follows one 200 stream response. The byte-count header
// guards against truncated bodies: the store writes and applies only the
// valid frame prefix, and its position advances exactly past it.
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
		// Partial read: fall through with what we have; the store keeps
		// only the valid prefix.
		r.logf("replication: stream body: %v (keeping valid prefix)", err)
	}
	if want >= 0 && len(body) > want {
		body = body[:want]
	}

	// A truncated or garbled tail (chaos transport) is simply not written
	// or applied; the next round re-fetches it. Bytes are on disk BEFORE
	// their records are applied: on a crash between the two, recovery
	// replays them through the same idempotent path.
	applied, next, err := r.durable.Follow(start, body)
	if err != nil {
		return err
	}
	used := int(next.Offset - start.Offset)
	if used == 0 {
		if want > 0 {
			return fmt.Errorf("replication: stream batch carried no valid frames (%d/%d bytes)", len(body), want)
		}
		return nil
	}

	lag, _ := strconv.ParseInt(resp.Header.Get(HeaderLag), 10, 64)
	lagBytes, _ := strconv.ParseInt(resp.Header.Get(HeaderLagBytes), 10, 64)
	if used < len(body) || (want >= 0 && used < want) {
		// We dropped a torn tail; the primary still has those records.
		lag++
		if want >= 0 && used < want {
			lagBytes += int64(want - used)
		}
	}

	r.mu.Lock()
	r.applied += int64(applied)
	r.lag = lag
	r.lagBytes = lagBytes
	r.connected = true
	r.lastErr = ""
	r.mu.Unlock()

	r.batchCtr.Inc()
	r.recordCtr.Add(uint64(applied))
	r.byteCtr.Add(uint64(used))
	r.applyHist.Observe(reg.Since(applyStart))
	return nil
}

// Status snapshots the replica's replication state.
func (r *Replica) Status() ReplicaStatus {
	role, term, primary := r.node.Snapshot()
	pos := r.durable.Position()
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		Role:           role.String(),
		Term:           term,
		Primary:        primary,
		Position:       pos.String(),
		LagRecords:     r.lag,
		LagBytes:       r.lagBytes,
		AppliedRecords: r.applied,
		Bootstraps:     r.bootstraps,
		Divergences:    r.divergences,
		Connected:      r.connected,
		LastError:      r.lastErr,
	}
}

// Promote makes the node the primary in place: streaming stops, the
// store readies a fresh append segment above the streamed prefix (so the
// old primary's log stays a byte prefix of the new one's), the node's term
// is bumped and persisted and its role flipped, and the same store —
// nothing replayed or re-read — takes the engine's appends. No node is
// ever a primary without a journal: the journal is on the engine before
// the role flips (the Guard admits no write until it does), and a write
// admitted the instant it flips waits on the store's barrier for the
// switch. Any failure leaves a streaming standby.
func (r *Replica) Promote() (*store.Durable, uint64, error) {
	r.promoteMu.Lock()
	defer r.promoteMu.Unlock()
	wasRunning := r.halt(false)
	var term uint64
	r.engine.SetJournal(r.durable)
	err := r.durable.Promote(func() (err error) {
		term, err = r.node.Promote()
		return err
	})
	if err != nil {
		r.engine.SetJournal(nil)
		if wasRunning {
			r.Start()
		}
		return nil, 0, fmt.Errorf("replication: promote: %w", err)
	}
	r.halt(true)
	r.logf("replication: promoted at term %d; journal open above the streamed prefix", term)
	return r.durable, term, nil
}
