// partition.go — the tag service's partitioned-cluster surface. In a
// partitioned deployment every node owns one contiguous partition-key
// range (segment.Key hashes), and the routing tier (bfproxy -ring-file)
// scatter-gathers cross-partition disclosure queries:
//
//	POST /v1/part/observe  phase 1 (no body.resolved): cache probe at the
//	                       segment's home; a hit answers the verdict, a
//	                       miss returns this partition's scatter
//	                       contribution. phase 2 (body.resolved set):
//	                       apply the router-merged result.
//	POST /v1/part/query    read-only scatter contribution (checks, and
//	                       the remote half of an observe resolution).
//	                       Primary-only despite being read-only: the
//	                       replication guard 421s it on replicas and
//	                       fenced ex-primaries, whose lagging state
//	                       could hide the authoritative holder.
//	POST /v1/part/check    evaluate a release check from router-resolved
//	                       sources and implicit tags.
//	GET/POST /v1/part/ring fetch / install the encoded ring config.
//	POST /v1/part/prune    drop a key range after a split moves it.
//
// A mutation for a segment this node does not own is answered 421 with
// X-BF-Ring-Version, so a router holding a stale ring refreshes and
// re-dispatches instead of writing to the wrong partition.
package tagserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
)

// HeaderRingVersion carries the responding node's ring version on
// partition-ownership 421s and on /v1/part/ring responses, so routers
// know whether their ring is stale before re-fetching it.
const HeaderRingVersion = "X-BF-Ring-Version"

// PartitionState is the node-side view of the cluster ring the server
// consults for ownership and health. It is implemented by bftagd (which
// owns the ring file) so the tagserver package stays decoupled from the
// ring codec.
type PartitionState interface {
	// ID is this node's partition id.
	ID() string

	// RingVersion is the installed ring's version.
	RingVersion() uint64

	// Owns reports whether seg's partition key falls in this partition's
	// range under the installed ring.
	Owns(seg segment.ID) bool

	// KeyRange is this partition's inclusive partition-key range.
	KeyRange() (lo, hi uint32)

	// Sole reports whether the ring holds exactly one partition, in which
	// case observes complete locally in one round trip.
	Sole() bool

	// Resharding reports whether a split is currently moving a slice of
	// this partition's range.
	Resharding() bool

	// RingBytes returns the installed ring in its encoded (BFRING01)
	// form, nil when none is installed.
	RingBytes() []byte

	// SetRing validates and installs an encoded ring, returning the new
	// version. Version-monotone: an older or equal version is rejected.
	SetRing(encoded []byte) (uint64, error)
}

// WithPartition installs the node's partition state, enabling the
// /v1/part/* surface and partition-aware ownership checks on the
// classic mutation endpoints.
func WithPartition(ps PartitionState) ServerOption {
	return func(s *Server) { s.partition = ps }
}

// HealthPartition is the /healthz view of the node's partition.
type HealthPartition struct {
	ID          string `json:"id"`
	RingVersion uint64 `json:"ringVersion"`
	RangeLo     uint32 `json:"rangeLo"`
	RangeHi     uint32 `json:"rangeHi"`
	Resharding  bool   `json:"resharding"`
}

// --- wire types -------------------------------------------------------------
//
// A node↔router body that carries an engine fact carries the engine's own
// type (policy.PartResolve, disclosure.Source, segment.KeyRange): their
// JSON tags are this wire, pinned by TestPartWirePinned.

// PartResolved is the router-merged disclosure result a routed observe
// applies at the segment's home.
type PartResolved struct {
	Sources []disclosure.Source     `json:"sources"`
	Tags    map[segment.ID][]string `json:"tags,omitempty"`
}

// PartObserveRequest is a routed observation. Clock is the router's
// Lamport stamp (0 lets the home partition self-stamp). Resolved is the
// router's merge of every partition's PartQuery reply; only a partition
// that is its ring's sole one resolves an observation itself (nil).
type PartObserveRequest struct {
	Device      string        `json:"device,omitempty"`
	Service     string        `json:"service"`
	Seg         segment.ID    `json:"seg"`
	Hashes      []uint32      `json:"hashes"`
	Granularity string        `json:"granularity,omitempty"`
	Clock       uint64        `json:"clock,omitempty"`
	Resolved    *PartResolved `json:"resolved,omitempty"`
}

// PartObserveResponse carries the routed observation's verdict.
type PartObserveResponse struct {
	Verdict *Verdict `json:"verdict,omitempty"`
}

// PartQueryRequest asks a partition for its scatter contribution.
type PartQueryRequest struct {
	Hashes      []uint32 `json:"hashes"`
	Granularity string   `json:"granularity,omitempty"`
}

// PartCheckRequest evaluates a release check from router-resolved
// sources and the scatter-computed implicit tag union.
type PartCheckRequest struct {
	Device   string              `json:"device,omitempty"`
	Dest     string              `json:"dest"`
	Sources  []disclosure.Source `json:"sources,omitempty"`
	Implicit []string            `json:"implicit,omitempty"`
}

// PartPruneResponse reports how many segments a /v1/part/prune (body: the
// segment.KeyRange a split moved away) removed.
type PartPruneResponse struct {
	Removed int `json:"removed"`
}

// PartRingResponse acknowledges a ring install.
type PartRingResponse struct {
	Version uint64 `json:"version"`
}

// --- server handlers --------------------------------------------------------

// registerPartitionHandlers mounts the /v1/part/* surface (no-op when
// the server runs unpartitioned).
func (s *Server) registerPartitionHandlers(handle func(path, endpoint string, h http.HandlerFunc)) {
	if s.partition == nil {
		return
	}
	handle("/v1/part/observe", "part_observe", s.handlePartObserve)
	handle("/v1/part/query", "part_query", s.handlePartQuery)
	handle("/v1/part/check", "part_check", s.handlePartCheck)
	handle("/v1/part/ring", "part_ring", s.handlePartRing)
	handle("/v1/part/prune", "part_prune", s.handlePartPrune)
}

// writeNotOwner answers a mutation for a segment this partition does not
// own: 421 plus the ring version, so a router with a stale ring fetches
// the fresh one and re-dispatches.
func (s *Server) writeNotOwner(w http.ResponseWriter, seg segment.ID) {
	s.writeStaleRing(w, fmt.Sprintf("does not own segment %q", seg))
}

// writeStaleRing answers 421 with the ring version, why naming what the
// request assumed of a ring this partition no longer has.
func (s *Server) writeStaleRing(w http.ResponseWriter, why string) {
	ps := s.partition
	w.Header().Set(HeaderRingVersion, strconv.FormatUint(ps.RingVersion(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMisdirectedRequest)
	json.NewEncoder(w).Encode(map[string]interface{}{ //nolint:errcheck
		"error":       fmt.Sprintf("partition %s %s (ring v%d)", ps.ID(), why, ps.RingVersion()),
		"ringVersion": ps.RingVersion(),
	})
}

// parseGranularity maps the wire granularity to the engine's.
func parseGranularity(v string) (segment.Granularity, bool) {
	switch v {
	case "", "paragraph":
		return segment.GranularityParagraph, true
	case "document":
		return segment.GranularityDocument, true
	default:
		return segment.GranularityParagraph, false
	}
}

func (s *Server) handlePartObserve(w http.ResponseWriter, r *http.Request) {
	var req PartObserveRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Seg == "" || req.Service == "" {
		http.Error(w, "seg and service required", http.StatusBadRequest)
		return
	}
	gran, ok := parseGranularity(req.Granularity)
	if !ok {
		http.Error(w, "unknown granularity", http.StatusBadRequest)
		return
	}
	if !s.partition.Owns(req.Seg) {
		s.writeNotOwner(w, req.Seg)
		return
	}
	fp := fingerprint.FromHashes(req.Hashes)
	var (
		verdict policy.Verdict
		err     error
	)
	switch {
	case req.Resolved != nil:
		verdict, err = s.engine.ObserveResolvedFPCtx(r.Context(), req.Seg, req.Service, fp, gran, req.Clock, req.Resolved.Sources, req.Resolved.Tags)
	case s.partition.Sole():
		verdict, err = s.engine.ObserveSoleFPCtx(r.Context(), req.Seg, req.Service, fp, gran, req.Clock)
	default:
		// Only a sole partition sees every partition's state: a router
		// that sends no merge holds a one-partition ring that is stale.
		s.writeStaleRing(w, "is not its ring's sole partition: an observe needs the merged resolve")
		return
	}
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	s.observes.Add(1)
	s.countVerdict(verdict)
	vr := wireVerdict(verdict)
	writeJSON(w, PartObserveResponse{Verdict: &vr})
}

func (s *Server) handlePartQuery(w http.ResponseWriter, r *http.Request) {
	var req PartQueryRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	gran, ok := parseGranularity(req.Granularity)
	if !ok {
		http.Error(w, "unknown granularity", http.StatusBadRequest)
		return
	}
	// The reply indexes the caller's list, and the overlap merge needs it
	// ascending: the router sends normalised fingerprints, so refuse, not
	// re-sort, anything else.
	for i := 1; i < len(req.Hashes); i++ {
		if req.Hashes[i] <= req.Hashes[i-1] {
			http.Error(w, "hashes must strictly ascend", http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, s.engine.PartQuery(req.Hashes, gran))
}

func (s *Server) handlePartCheck(w http.ResponseWriter, r *http.Request) {
	var req PartCheckRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Dest == "" {
		http.Error(w, "dest required", http.StatusBadRequest)
		return
	}
	verdict, err := s.engine.CheckResolved(req.Dest, req.Sources, req.Implicit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.countVerdict(verdict)
	writeVerdict(w, verdict)
}

// handlePartRing serves (GET) and installs (POST) the encoded ring. The
// POST side is deliberately outside the replication guard: a ring flip
// must reach replicas and fenced ex-primaries too, or they would keep
// answering ownership checks against a stale ring after promotion.
func (s *Server) handlePartRing(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rb := s.partition.RingBytes()
		if rb == nil {
			http.Error(w, "no ring installed", http.StatusNotFound)
			return
		}
		w.Header().Set(HeaderRingVersion, strconv.FormatUint(s.partition.RingVersion(), 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(rb) //nolint:errcheck
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err != nil {
			http.Error(w, "read ring body: "+err.Error(), http.StatusBadRequest)
			return
		}
		version, err := s.partition.SetRing(body)
		if err != nil {
			http.Error(w, "install ring: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set(HeaderRingVersion, strconv.FormatUint(version, 10))
		writeJSON(w, PartRingResponse{Version: version})
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handlePartPrune(w http.ResponseWriter, r *http.Request) {
	var req segment.KeyRange
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Lo > req.Hi {
		http.Error(w, "lo must be <= hi", http.StatusBadRequest)
		return
	}
	removed, err := s.engine.PruneRange(r.Context(), req.Lo, req.Hi)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, PartPruneResponse{Removed: removed})
}

// --- client methods ---------------------------------------------------------

// PartObserve sends a routed observation: with resolved, the router's
// merge for the home to apply; nil, to a sole partition, which resolves
// it itself. The response's Verdict is set on success.
func (c *Client) PartObserve(ctx context.Context, service string, seg segment.ID, hashes []uint32, granularity string, clock uint64, resolved *PartResolved) (PartObserveResponse, error) {
	const path = "/v1/part/observe"
	if resolved != nil && resolved.Sources == nil {
		// The wire carries a list here, never null.
		resolved = &PartResolved{Sources: []disclosure.Source{}, Tags: resolved.Tags}
	}
	var out PartObserveResponse
	if err := c.post(ctx, path, PartObserveRequest{
		Device:      c.device,
		Service:     service,
		Seg:         seg,
		Hashes:      hashes,
		Granularity: granularity,
		Clock:       clock,
		Resolved:    resolved,
	}, &out); err != nil {
		return PartObserveResponse{}, err
	}
	if out.Verdict == nil {
		return PartObserveResponse{}, &UnavailableError{Op: path, Err: fmt.Errorf("response carries no verdict")}
	}
	return out, nil
}

// PartQuery fetches a partition's scatter contribution for hashes.
func (c *Client) PartQuery(ctx context.Context, hashes []uint32, granularity string) (policy.PartResolve, error) {
	var out policy.PartResolve
	if err := c.post(ctx, "/v1/part/query", PartQueryRequest{Hashes: hashes, Granularity: granularity}, &out); err != nil {
		return policy.PartResolve{}, err
	}
	return out, nil
}

// PartCheck evaluates a release check from resolved sources and implicit
// tags.
func (c *Client) PartCheck(ctx context.Context, dest string, sources []disclosure.Source, implicit []string) (Verdict, error) {
	return c.postVerdict(ctx, "/v1/part/check", PartCheckRequest{
		Device:   c.device,
		Dest:     dest,
		Sources:  sources,
		Implicit: implicit,
	})
}

// PartRing fetches the node's encoded ring and its version.
func (c *Client) PartRing(ctx context.Context) ([]byte, uint64, error) {
	const path = "/v1/part/ring"
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, 0, &UnavailableError{Op: path, Err: err}
	}
	version, _ := strconv.ParseUint(resp.Header.Get(HeaderRingVersion), 10, 64)
	return body, version, nil
}
