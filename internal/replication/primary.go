package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// Wire protocol headers. Every replication response carries the serving
// node's term so clients and replicas learn about promotions passively.
const (
	// HeaderTerm is the fencing term of whoever sent the message. Clients
	// and replicas send the highest term they have observed; nodes reply
	// with their own.
	HeaderTerm = "X-BF-Term"

	// HeaderPrimary is the advertised address of the primary the sender
	// believes in (present on 421 responses and fence notifications).
	HeaderPrimary = "X-BF-Primary"

	// HeaderPos is the normalised start position of a stream batch.
	HeaderPos = "X-BF-Pos"

	// HeaderNextPos is the position just past a stream batch — the `from`
	// of the next stream call.
	HeaderNextPos = "X-BF-Next-Pos"

	// HeaderBatchBytes is the exact byte length of a stream batch body.
	// Replicas verify it before applying anything: a chaos transport that
	// truncates the body mid-frame must not advance the cursor past the
	// valid prefix.
	HeaderBatchBytes = "X-BF-Batch-Bytes"

	// HeaderLag is the number of records remaining after the batch (the
	// replica's lag once it applies the batch).
	HeaderLag = "X-BF-Lag"

	// HeaderLagBytes is the number of framed WAL bytes remaining after
	// the batch — the byte-granularity companion of HeaderLag, exported
	// as the replica's lag-bytes gauge.
	HeaderLagBytes = "X-BF-Lag-Bytes"

	// HeaderDigest carries the sender's tracker state digest (16 hex
	// chars: the order-salted fold of both index databases, see
	// index.Fold). Replicas attach it to stream requests; the primary
	// adjudicates it whenever the replica is caught up.
	HeaderDigest = "X-BF-Digest"

	// HeaderDiverged marks a 410 caused by a confirmed digest divergence
	// rather than a truncated log. The replica re-bootstraps either way;
	// the cause is made explicit for logs and the divergence counters.
	HeaderDiverged = "X-BF-Diverged"
)

// SnapshotContentType is the media type of a binary bootstrap snapshot:
// the body is a plaintext BFLOWSNB image (see store/binsnap.go), served
// verbatim so the replica can both bulk-restore it and persist it as a
// local checkpoint without re-encoding. It is the only representation the
// snapshot endpoint serves (406 without it in Accept).
const SnapshotContentType = "application/x-bflow-snapshot"

const (
	// DefaultMaxBatchBytes bounds one stream batch body.
	DefaultMaxBatchBytes = 1 << 20

	// DefaultMaxWait bounds a stream long-poll.
	DefaultMaxWait = 25 * time.Second
)

// errorBody is the JSON error payload for replication endpoints.
type errorBody struct {
	Error   string `json:"error"`
	Primary string `json:"primary,omitempty"`
	Term    uint64 `json:"term,omitempty"`
}

// Primary serves the replication API over a node's durable store:
// /v1/repl/snapshot hands a bootstrapping replica a consistent
// checkpoint, /v1/repl/stream long-polls raw WAL frames, and
// /v1/repl/fence delivers term bumps.
type Primary struct {
	node     *Node
	durable  *store.Durable
	maxBatch int
	maxWait  time.Duration
	logf     func(string, ...interface{})

	// Anti-entropy adjudication: a replica claiming digest D while caught
	// up at position P earns one strike per stream round; divergence is
	// confirmed — and the replica told to re-bootstrap — only after the
	// same (P, D) claim mismatches divergenceStrikes rounds in a row.
	// Transient mismatches (the primary appended between serving the
	// batch and computing its own digest) never repeat at the same pair,
	// because applying the new records moves the replica's P and D both.
	strikeMu    sync.Mutex
	strikes     map[strikeKey]int
	divergences int64
}

// strikeKey identifies one replica claim under adjudication.
type strikeKey struct {
	pos    string
	digest string
}

const (
	// divergenceStrikes is how many consecutive caught-up mismatches of
	// the same (position, digest) claim confirm a divergence.
	divergenceStrikes = 3

	// maxStrikeEntries bounds the adjudication map; a full map is reset
	// rather than grown (strikes are cheap to re-earn).
	maxStrikeEntries = 64
)

// PrimaryOptions configures NewPrimary.
type PrimaryOptions struct {
	// MaxBatchBytes bounds one stream batch (default DefaultMaxBatchBytes).
	MaxBatchBytes int

	// MaxWait caps a stream long-poll (default DefaultMaxWait).
	MaxWait time.Duration

	// Logf receives serving notes; nil discards.
	Logf func(format string, args ...interface{})
}

// NewPrimary builds the replication serving side over node and its
// durable store.
func NewPrimary(node *Node, durable *store.Durable, opts PrimaryOptions) *Primary {
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = DefaultMaxWait
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	return &Primary{
		node:     node,
		durable:  durable,
		maxBatch: opts.MaxBatchBytes,
		maxWait:  opts.MaxWait,
		logf:     opts.Logf,
		strikes:  make(map[strikeKey]int),
	}
}

// setTermHeaders stamps the node's current term (and primary, when known)
// on a response.
func setTermHeaders(w http.ResponseWriter, n *Node) {
	role, term, primary := n.Snapshot()
	w.Header().Set(HeaderTerm, strconv.FormatUint(term, 10))
	if primary != "" && role != RolePrimary {
		w.Header().Set(HeaderPrimary, primary)
	}
}

// writeError emits a JSON error with the node's term headers.
func writeError(w http.ResponseWriter, n *Node, status int, msg string) {
	setTermHeaders(w, n)
	_, term, primary := n.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Primary: primary, Term: term}) //nolint:errcheck
}

// observeRequestTerm feeds a request's X-BF-Term header into the node's
// fencing logic. It reports whether the node is (still) the primary.
func (p *Primary) observeRequestTerm(r *http.Request) bool {
	if v := r.Header.Get(HeaderTerm); v != "" {
		if term, err := strconv.ParseUint(v, 10, 64); err == nil {
			if fenced, err := p.node.ObserveTerm(term, ""); err != nil {
				p.logf("replication: persisting observed term: %v", err)
			} else if fenced {
				p.logf("replication: fenced by request term %d", term)
			}
		}
	}
	return p.node.Role() == RolePrimary
}

// handleSnapshot serves a consistent checkpoint for replica bootstrap.
// The snapshot is captured behind the WAL epoch barrier, so its WALSeg
// field is the exact stream position that follows it.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, p.node, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !p.observeRequestTerm(r) {
		p.writeNotPrimary(w)
		return
	}
	// Replica.bootstrap, the only client, always asks for the binary
	// checkpoint image; there is no second representation.
	if !strings.Contains(r.Header.Get("Accept"), SnapshotContentType) {
		writeError(w, p.node, http.StatusNotAcceptable, "snapshots are served as "+SnapshotContentType+" only")
		return
	}
	// ?lo=&hi= asks for a snapshot restricted to a partition-key range
	// (a split target bootstrapping a filtered replica).
	var kr *segment.KeyRange
	if q := r.URL.Query(); q.Get("lo") != "" || q.Get("hi") != "" {
		loVal, loErr := strconv.ParseUint(q.Get("lo"), 10, 32)
		hiVal, hiErr := strconv.ParseUint(q.Get("hi"), 10, 32)
		if loErr != nil || hiErr != nil || loVal > hiVal {
			writeError(w, p.node, http.StatusBadRequest, "bad lo/hi key range")
			return
		}
		kr = &segment.KeyRange{Lo: uint32(loVal), Hi: uint32(hiVal)}
	}
	blob, barrier, err := p.durable.CaptureImage(kr)
	if err != nil {
		writeError(w, p.node, http.StatusInternalServerError, "capture checkpoint: "+err.Error())
		return
	}
	setTermHeaders(w, p.node)
	w.Header().Set("Content-Type", SnapshotContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(blob); err != nil {
		p.logf("replication: stream snapshot (barrier %d): %v", barrier, err)
	}
}

// handleStream serves raw CRC-framed WAL record bytes from ?from=seg,off.
// Responses:
//
//	200 — body is a batch of frame bytes; headers carry the normalised
//	      start, the next position, the exact body length and the lag.
//	204 — caught up (after waiting up to ?wait=); Next-Pos repeats from.
//	410 — the position is gone (truncated below the checkpoint floor, or
//	      ahead of the primary's log after a failover); re-bootstrap.
//	421 — this node is not the primary; follow X-BF-Primary.
func (p *Primary) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, p.node, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !p.observeRequestTerm(r) {
		p.writeNotPrimary(w)
		return
	}
	q := r.URL.Query()
	from := wal.Pos{}
	if v := q.Get("from"); v != "" {
		parsed, err := wal.ParsePos(v)
		if err != nil {
			writeError(w, p.node, http.StatusBadRequest, "bad from: "+err.Error())
			return
		}
		from = parsed
	}
	wait := time.Duration(0)
	if v := q.Get("wait"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, p.node, http.StatusBadRequest, "bad wait")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > p.maxWait {
			wait = p.maxWait
		}
	}

	log := p.durable.WAL()
	frames, n, start, next, err := log.ReadFrom(from, p.maxBatch)
	if err == nil && n == 0 && wait > 0 {
		ctx, cancel := log.Clock().WithTimeout(r.Context(), wait)
		werr := log.WaitFrom(ctx, from)
		cancel()
		if werr == nil {
			frames, n, start, next, err = log.ReadFrom(from, p.maxBatch)
		} else if !errors.Is(werr, context.DeadlineExceeded) && !errors.Is(werr, context.Canceled) {
			err = werr
		}
	}
	if err != nil {
		p.writeStreamError(w, err)
		return
	}
	// Re-check the role: a fence may have landed while we long-polled.
	if p.node.Role() != RolePrimary {
		p.writeNotPrimary(w)
		return
	}

	lag, lagErr := log.CountFrom(next)
	if lagErr != nil {
		lag = 0
	}
	lagBytes, lagErr := log.BytesFrom(next)
	if lagErr != nil {
		lagBytes = 0
	}
	setTermHeaders(w, p.node)
	w.Header().Set(HeaderPos, start.String())
	w.Header().Set(HeaderNextPos, next.String())
	w.Header().Set(HeaderBatchBytes, strconv.Itoa(len(frames)))
	w.Header().Set(HeaderLag, strconv.FormatInt(lag, 10))
	w.Header().Set(HeaderLagBytes, strconv.FormatInt(lagBytes, 10))
	if n == 0 {
		// The replica is caught up: this is the only moment its digest is
		// directly comparable to ours, so adjudicate the claim it sent.
		if remote := r.Header.Get(HeaderDigest); remote != "" {
			if p.adjudicateDigest(next, remote) {
				w.Header().Set(HeaderDiverged, "digest-mismatch")
				writeError(w, p.node, http.StatusGone,
					"replica state diverged at "+next.String()+"; re-bootstrap")
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
	w.WriteHeader(http.StatusOK)
	w.Write(frames) //nolint:errcheck
}

// adjudicateDigest scores a caught-up replica's digest claim against the
// primary's own state digest. A match clears the claim's strikes; a
// mismatch earns one, and divergenceStrikes consecutive mismatches at the
// same (position, digest) pair confirm the divergence. It reports whether
// the replica should be ordered to re-bootstrap.
func (p *Primary) adjudicateDigest(pos wal.Pos, remote string) bool {
	local := fmt.Sprintf("%016x", p.durable.StateDigest().Combined)
	key := strikeKey{pos: pos.String(), digest: remote}
	p.strikeMu.Lock()
	defer p.strikeMu.Unlock()
	if remote == local {
		delete(p.strikes, key)
		return false
	}
	if _, ok := p.strikes[key]; !ok && len(p.strikes) >= maxStrikeEntries {
		p.strikes = make(map[strikeKey]int)
	}
	p.strikes[key]++
	if p.strikes[key] < divergenceStrikes {
		return false
	}
	delete(p.strikes, key)
	p.divergences++
	p.logf("replication: replica diverged at %s (digest %s, want %s); ordering re-bootstrap", pos, remote, local)
	return true
}

// Divergences reports how many replica divergences this primary has
// confirmed since it started serving.
func (p *Primary) Divergences() int64 {
	p.strikeMu.Lock()
	defer p.strikeMu.Unlock()
	return p.divergences
}

// handleDigest serves the primary's current state digest — the per-DB
// breakdown plus the combined fold — with the WAL end position it was
// computed at, so operators (bfctl) and tests can compare nodes directly.
func (p *Primary) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, p.node, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !p.observeRequestTerm(r) {
		p.writeNotPrimary(w)
		return
	}
	digest := p.durable.StateDigest()
	setTermHeaders(w, p.node)
	w.Header().Set(HeaderDigest, fmt.Sprintf("%016x", digest.Combined))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Position    string                   `json:"position"`
		Digest      disclosure.TrackerDigest `json:"digest"`
		Divergences int64                    `json:"divergences"`
	}{
		Position:    p.durable.WAL().End().String(),
		Digest:      digest,
		Divergences: p.Divergences(),
	})
}

// writeStreamError maps ReadFrom errors onto the wire.
func (p *Primary) writeStreamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, wal.ErrPositionGone):
		writeError(w, p.node, http.StatusGone, err.Error())
	case errors.Is(err, wal.ErrClosed):
		writeError(w, p.node, http.StatusServiceUnavailable, "log closed")
	default:
		writeError(w, p.node, http.StatusInternalServerError, err.Error())
	}
}

// writeNotPrimary answers 421 with the primary's address, steering the
// caller at whoever owns the highest term this node has seen.
func (p *Primary) writeNotPrimary(w http.ResponseWriter) {
	role, term, _ := p.node.Snapshot()
	msg := fmt.Sprintf("node is %s at term %d, not primary", role, term)
	writeError(w, p.node, http.StatusMisdirectedRequest, msg)
}

// handleFence applies an explicit term bump: POST {"term": T, "primary":
// addr}. A deposed primary fenced this way refuses writes immediately.
func handleFence(node *Node, logf func(string, ...interface{})) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, node, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var body struct {
			Term    uint64 `json:"term"`
			Primary string `json:"primary"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<10)).Decode(&body); err != nil {
			writeError(w, node, http.StatusBadRequest, "bad fence body: "+err.Error())
			return
		}
		fenced, err := node.ObserveTerm(body.Term, body.Primary)
		if err != nil {
			writeError(w, node, http.StatusInternalServerError, "persist term: "+err.Error())
			return
		}
		if fenced {
			logf("replication: fenced to term %d by %s", body.Term, body.Primary)
		}
		role, term, primary := node.Snapshot()
		setTermHeaders(w, node)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{ //nolint:errcheck
			"role":    role.String(),
			"term":    term,
			"primary": primary,
			"fenced":  fenced,
		})
	}
}
