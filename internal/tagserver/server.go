// Package tagserver provides the shared enterprise tag service: a central
// HTTP endpoint holding the fingerprint databases and TDM labels for a
// whole organisation, so that text observed on one employee's device is
// recognised when it surfaces on another's.
//
// Devices keep text local and ship *fingerprint hashes only* — the same
// privacy posture the paper recommends for fingerprint data at rest
// (§4.4). The protocol mirrors the plug-in's decision points:
//
//	POST /v1/observe        {device, service, seg, hashes}     -> verdict
//	POST /v1/observe/batch  {device, service, items:[...]}     -> verdicts
//	POST /v1/check     {device, dest, hashes}              -> verdict
//	POST /v1/upload    {device, seg, dest}                 -> verdict
//	POST /v1/suppress  {user, seg, tag, justification}     -> ok
//	GET  /v1/label?seg=...                                 -> label
//	GET  /v1/stats                                         -> sizes
//	GET  /healthz                                          -> liveness
package tagserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
)

// ObserveRequest records an observation from a device.
type ObserveRequest struct {
	Device  string     `json:"device"`
	Service string     `json:"service"`
	Seg     segment.ID `json:"seg"`
	Hashes  []uint32   `json:"hashes"`

	// Granularity is "paragraph" (default) or "document".
	Granularity string `json:"granularity,omitempty"`
}

// BatchObserveItem is one observation inside a batched flush.
type BatchObserveItem struct {
	Seg    segment.ID `json:"seg"`
	Hashes []uint32   `json:"hashes"`

	// Granularity is "paragraph" (default) or "document".
	Granularity string `json:"granularity,omitempty"`
}

// BatchObserveRequest records a flush of coalesced observations from a
// device — how a real browser extension ships DOM mutations: buffered and
// flushed together rather than one request per keystroke.
type BatchObserveRequest struct {
	Device  string             `json:"device"`
	Service string             `json:"service"`
	Items   []BatchObserveItem `json:"items"`
}

// BatchObserveResponse carries one verdict per request item, in order.
type BatchObserveResponse struct {
	Verdicts []Verdict `json:"verdicts"`
}

// CheckRequest asks whether content may be released to a destination.
type CheckRequest struct {
	Device string   `json:"device"`
	Dest   string   `json:"dest"`
	Hashes []uint32 `json:"hashes"`
}

// UploadRequest asks whether a tracked segment may be released.
type UploadRequest struct {
	Device string     `json:"device"`
	Seg    segment.ID `json:"seg"`
	Dest   string     `json:"dest"`
}

// SuppressRequest declassifies a tag on a segment.
type SuppressRequest struct {
	User          string     `json:"user"`
	Seg           segment.ID `json:"seg"`
	Tag           tdm.Tag    `json:"tag"`
	Justification string     `json:"justification"`
}

// Verdict is a policy verdict as the wire carries it, and as clients
// return it.
type Verdict struct {
	Decision  string     `json:"decision"`
	Violating []tdm.Tag  `json:"violating,omitempty"`
	Sources   []SourceDT `json:"sources,omitempty"`
}

// Violation reports whether the verdict carries violating tags.
func (v Verdict) Violation() bool { return len(v.Violating) > 0 }

// SourceDT is one disclosure source in a verdict (no threshold: a verdict
// reports what was disclosed, not the bar it met).
type SourceDT struct {
	Seg        segment.ID `json:"seg"`
	Disclosure float64    `json:"disclosure"`
}

// LabelResponse is the wire form of a segment label.
type LabelResponse struct {
	Explicit   []tdm.Tag `json:"explicit"`
	Implicit   []tdm.Tag `json:"implicit"`
	Suppressed []tdm.Tag `json:"suppressed"`
}

// StatsResponse reports database sizes.
type StatsResponse struct {
	Segments       int `json:"segments"`
	DistinctHashes int `json:"distinctHashes"`
	AuditEntries   int `json:"auditEntries"`
}

// HealthResponse is the wire form of the /healthz liveness probe. Clients
// (and the failover layer's half-open trials) use it to decide whether the
// service has recovered.
type HealthResponse struct {
	Status   string `json:"status"`
	Uptime   string `json:"uptime"`
	Segments int    `json:"segments"`

	// Durability summarises the WAL + checkpoint subsystem; nil when the
	// server runs without a durability layer.
	Durability *HealthDurability `json:"durability,omitempty"`

	// Replication summarises the node's cluster role; nil when the server
	// runs standalone.
	Replication *HealthReplication `json:"replication,omitempty"`

	// Admission summarises the ingest admission pipeline; nil when the
	// server runs without one. It is served from a side path (no queueing),
	// so it stays live while the ingest lanes are shedding.
	Admission *HealthAdmission `json:"admission,omitempty"`

	// Storage summarises the self-healing storage layer — scrub freshness,
	// quarantine inventory and disk degradation; nil without a durability
	// layer.
	Storage *HealthStorage `json:"storage,omitempty"`

	// Partition summarises the node's place in the cluster ring; nil on an
	// unpartitioned node.
	Partition *HealthPartition `json:"partition,omitempty"`

	// Policy identifies the compiled policy the node enforces; nil when
	// the server was started without a policy file.
	Policy *HealthPolicy `json:"policy,omitempty"`
}

// HealthPolicy is the /healthz view of the loaded policy: the compile
// fingerprint lets operators confirm every node in a fleet enforces the
// same rules without shipping the policy body over the probe.
type HealthPolicy struct {
	Hash     string `json:"hash"`
	Services int    `json:"services,omitempty"`
}

// HealthStorage is the /healthz view of the self-healing storage layer.
// Monitoring alerts on LastScrubAge going stale, QuarantinedFiles > 0 and
// DiskDegraded; the rest contextualises those.
type HealthStorage struct {
	ScrubPasses      int64  `json:"scrubPasses"`
	LastScrubAge     string `json:"lastScrubAge,omitempty"`
	FramesVerified   int64  `json:"framesVerified"`
	CorruptionsFound int64  `json:"corruptionsFound"`
	Quarantines      int64  `json:"quarantines"`
	QuarantinedFiles int    `json:"quarantinedFiles"`
	LastCorruption   string `json:"lastCorruption,omitempty"`
	DiskDegraded     bool   `json:"diskDegraded"`
	DegradedCause    string `json:"degradedCause,omitempty"`
	FailOpen         bool   `json:"failOpen"`
	DroppedRecords   int64  `json:"droppedRecords"`
	DiskRecoveries   int64  `json:"diskRecoveries"`
}

// HealthAdmission is the /healthz view of the admission pipeline.
type HealthAdmission struct {
	Draining    bool                `json:"draining"`
	Folds       uint64              `json:"folds"`
	Interactive HealthAdmissionLane `json:"interactive"`
	Bulk        HealthAdmissionLane `json:"bulk"`
}

// HealthAdmissionLane is one lane's live state.
type HealthAdmissionLane struct {
	Depth         int    `json:"depth"`
	Cap           int    `json:"cap"`
	Submitted     uint64 `json:"submitted"`
	Executed      uint64 `json:"executed"`
	Shed          uint64 `json:"shed"`
	DeadlineDrops uint64 `json:"deadlineDrops"`
}

// HealthReplication is the /healthz view of the replication subsystem:
// the node's role and fencing term, and — on replicas — how far behind
// the primary it is, so callers can bound read staleness.
type HealthReplication struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Primary        string `json:"primary,omitempty"`
	Position       string `json:"position,omitempty"`
	LagRecords     int64  `json:"lag_records"`
	LagBytes       int64  `json:"lag_bytes"`
	AppliedRecords int64  `json:"appliedRecords,omitempty"`
	Bootstraps     int64  `json:"bootstraps,omitempty"`
	Connected      bool   `json:"connected"`
	LastError      string `json:"lastError,omitempty"`
}

// HealthDurability is the /healthz view of the durability subsystem.
type HealthDurability struct {
	WALRecords        int64  `json:"walRecords"`
	WALSegments       int    `json:"walSegments"`
	Fsyncs            int64  `json:"fsyncs"`
	Checkpoints       int64  `json:"checkpoints"`
	CheckpointErrors  int64  `json:"checkpointErrors"`
	LastCheckpointAge string `json:"lastCheckpointAge,omitempty"`
	RecordsReplayed   int64  `json:"recordsReplayed"`
	CheckpointLoaded  string `json:"checkpointLoaded,omitempty"`
}

// DefaultMaxBodyBytes bounds request bodies accepted by the service
// (overridable with WithMaxBodyBytes). Fingerprint hash lists are small;
// anything past this is hostile or broken.
const DefaultMaxBodyBytes = 1 << 20

// ServerOption customises a Server.
type ServerOption func(*Server)

// WithMaxBodyBytes overrides the request-body size limit. Requests larger
// than n bytes are rejected with 413.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithDurabilitySource exposes the durability subsystem's statistics on
// /v1/metrics and /healthz. The source reports ok=false while no journal
// exists (a replica opens one only when promoted); for a node that always
// has one, wrap (*store.Durable).Stats.
func WithDurabilitySource(fn func() (store.DurabilityStats, bool)) ServerOption {
	return func(s *Server) { s.durability = fn }
}

// WithReplicationStatus exposes the node's replication role, term and
// lag on /healthz and /v1/metrics. The callback is invoked per request,
// so it may reflect a live promotion.
func WithReplicationStatus(fn func() HealthReplication) ServerOption {
	return func(s *Server) { s.replication = fn }
}

// WithAdmission routes /v1/observe and /v1/observe/batch through an
// admission pipeline: single observes ride the interactive lane (with
// per-segment coalescing), batch flushes ride the bulk lane. Shed requests
// are answered 429 with a Retry-After hint instead of queueing without
// bound. Side paths (/healthz, /v1/metrics, checks, uploads) bypass the
// pipeline so operators can always see a saturated server.
func WithAdmission(p *admission.Pipeline) ServerOption {
	return func(s *Server) { s.admission = p }
}

// WithPolicyInfo publishes the compiled policy's identity on /healthz.
// Pass the policyfile compile hash and the number of services it
// resolved; an empty hash leaves the policy section off the probe.
func WithPolicyInfo(hash string, services int) ServerOption {
	return func(s *Server) {
		if hash != "" {
			s.policyInfo = &HealthPolicy{Hash: hash, Services: services}
		}
	}
}

// WithObs makes the server record into a shared observability bundle —
// the one the daemon also hands to admission, replication and its
// -debug-listen handler — so the node has one registry and one span
// ring. Without it the server records into a private bundle.
func WithObs(o *obs.Obs) ServerOption {
	return func(s *Server) { s.obs = o }
}

// Server is the shared tag service. It is safe for concurrent use.
type Server struct {
	engine      *policy.Engine
	mux         *http.ServeMux
	maxBody     int64
	started     time.Time
	durability  func() (store.DurabilityStats, bool)
	replication func() HealthReplication
	admission   *admission.Pipeline
	obs         *obs.Obs
	partition   PartitionState
	policyInfo  *HealthPolicy

	// The counters the server owns, resolved once in NewServer.
	observes, violations   *obs.Counter
	cacheHits, cacheMisses *obs.Counter
}

var _ http.Handler = (*Server)(nil)

// NewServer returns a Server over the given engine.
func NewServer(engine *policy.Engine, opts ...ServerOption) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("tagserver: engine is required")
	}
	s := &Server{
		engine:  engine,
		mux:     http.NewServeMux(),
		maxBody: DefaultMaxBodyBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.obs == nil {
		s.obs = obs.New(nil, 0)
	}
	s.started = s.obs.Clock().Now()
	// Every endpoint gains RED metrics and trace lifting under a stable
	// endpoint label.
	handle := func(path, endpoint string, h http.HandlerFunc) {
		s.mux.Handle(path, s.obs.Instrument(endpoint, h))
	}
	handle("/v1/observe", "observe", s.handleObserve)
	handle("/v1/observe/batch", "observe_batch", s.handleObserveBatch)
	handle("/v1/check", "check", s.handleCheck)
	handle("/v1/upload", "upload", s.handleUpload)
	handle("/v1/suppress", "suppress", s.handleSuppress)
	handle("/v1/label", "label", s.handleLabel)
	handle("/v1/stats", "stats", s.handleStats)
	handle("/v1/metrics", "metrics", s.obs.MetricsHandler().ServeHTTP)
	handle("/healthz", "healthz", s.handleHealthz)
	s.registerPartitionHandlers(handle)
	s.mux.Handle("/v1/debug/traces", s.obs.TracesHandler())

	reg := s.obs.Registry()
	s.observes = reg.Counter("bf_observes_total", "Observations served (batch items count individually).")
	s.violations = reg.Counter("bf_violations_total", "Verdicts that reported a policy violation.")
	s.cacheHits = reg.Counter("bf_decision_cache_hits_total", "Verdicts answered from the disclosure decision cache.")
	s.cacheMisses = reg.Counter("bf_decision_cache_misses_total", "Verdicts computed because the decision cache missed.")
	reg.Collect(s.collect)
	return s, nil
}

// collect exports, from one snapshot each per scrape, the state the server
// holds (index sizes, audit length) and the sources it was handed
// (durability, replication). Admission and the replica's stream loop
// register their own series on the same registry.
func (s *Server) collect(e *obs.Scrape) {
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	// age is seconds since t on the registry clock, 0 while t is unset.
	age := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return e.Now().Sub(t).Seconds()
	}
	idx := s.engine.Tracker().Paragraphs().Stats()
	e.Gauge("bf_segments", "Tracked segments.", float64(idx.Segments))
	e.Gauge("bf_distinct_hashes", "Distinct fingerprint hashes indexed.", float64(idx.DistinctHashes))
	e.Gauge("bf_audit_entries", "Entries in the suppression audit trail.", float64(s.engine.Registry().Audit().Len()))
	if s.replication != nil {
		rs := s.replication()
		e.Gauge(fmt.Sprintf("bf_repl_role{role=%q}", rs.Role), "The node's replication role.", 1)
		e.Gauge("bf_repl_term", "The node's replication fencing term.", float64(rs.Term))
		e.Gauge("bf_repl_lag_records", "Records the primary holds that this node has not applied (0 on a primary).", float64(rs.LagRecords))
		e.Gauge("bf_repl_lag_bytes", "Framed WAL bytes this node trails its primary by (0 on a primary).", float64(rs.LagBytes))
		e.Gauge("bf_repl_applied_records", "Records applied since the last bootstrap.", float64(rs.AppliedRecords))
		e.Counter("bf_repl_bootstraps_total", "Snapshot bootstraps performed.", uint64(rs.Bootstraps))
		e.Gauge("bf_repl_connected", "1 when the node's last primary round succeeded.", flag(rs.Connected))
	}
	if d, ok := s.durabilityStats(); ok {
		e.Counter("bf_wal_records_total", "Records appended to the WAL by this process.", uint64(d.WAL.RecordsAppended))
		e.Counter("bf_wal_bytes_total", "Framed bytes appended to the WAL by this process.", uint64(d.WAL.BytesAppended))
		e.Histogram("bf_wal_fsync_seconds", "WAL fsync latency.", d.WAL.FsyncLatency)
		e.Gauge("bf_wal_segments", "Live WAL segment files.", float64(d.WAL.Segments))
		e.Gauge("bf_wal_torn_bytes_truncated", "Trailing bytes the torn-tail scan discarded at the last recovery.", float64(d.WAL.TornBytesTruncated))
		e.Counter("bf_checkpoints_total", "Checkpoints installed.", uint64(d.Checkpoints))
		e.Counter("bf_checkpoint_errors_total", "Checkpoint attempts that failed.", uint64(d.CheckpointErrors))
		e.Gauge("bf_checkpoint_age_seconds", "Seconds since the last successful checkpoint (0 before the first).", age(d.LastCheckpointAt))
		e.Gauge("bf_recovery_records_replayed", "WAL records replayed at the last recovery.", float64(d.Recovery.RecordsReplayed))
		e.Gauge("bf_recovery_corrupt_checkpoints", "Corrupt checkpoints skipped at the last recovery.", float64(d.Recovery.CorruptCheckpoints))
		e.Counter("bf_scrub_passes_total", "At-rest scrub passes completed.", uint64(d.Scrub.Passes))
		e.Counter("bf_scrub_frames_verified_total", "WAL frames re-verified clean by the at-rest scrubber.", uint64(d.Scrub.FramesVerified))
		e.Counter("bf_scrub_corruptions_found_total", "At-rest corruptions the scrubber found.", uint64(d.Scrub.CorruptionsFound))
		e.Counter("bf_scrub_quarantines_total", "Decayed files renamed aside by the scrubber.", uint64(d.Scrub.Quarantines))
		e.Gauge("bf_scrub_last_pass_age_seconds", "Seconds since the last completed scrub pass (0 before the first).", age(d.Scrub.LastPassAt))
		e.Gauge("bf_quarantined_files", "Quarantined files currently present in the durable directory.", float64(d.Scrub.QuarantinedFiles))
		e.Gauge("bf_disk_degraded", "1 while the journal is disk-fault degraded.", flag(d.Disk.Degraded))
		e.Counter("bf_disk_dropped_records_total", "Records a fail-open node served without journalling while degraded.", uint64(d.Disk.DroppedRecords))
		e.Counter("bf_disk_recoveries_total", "Times the journal left the degraded state.", uint64(d.Disk.Recoveries))
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
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
	var (
		verdict policy.Verdict
		err     error
	)
	if ps := s.partition; ps != nil {
		// Partition mode: every observe journals a resolved (stamped)
		// record so a later split can replay this node's WAL
		// deterministically. Sole rings complete locally; a multi-partition
		// node cannot resolve cross-partition sources itself, so classic
		// observes must come through the routing tier.
		if !ps.Owns(req.Seg) {
			s.writeNotOwner(w, req.Seg)
			return
		}
		if !ps.Sole() {
			http.Error(w, "node is a cluster partition: observations go through the routing tier (/v1/part/observe)", http.StatusConflict)
			return
		}
		verdict, err = s.engine.ObserveSoleFPCtx(r.Context(), req.Seg, req.Service, fingerprint.FromHashes(req.Hashes), gran, 0)
	} else if s.admission != nil {
		verdict, err = s.admission.Observe(r.Context(), req.Service, req.Seg, gran, fingerprint.FromHashes(req.Hashes))
	} else if gran == segment.GranularityDocument {
		verdict, err = s.engine.ObserveDocumentEditFPCtx(r.Context(), req.Seg, req.Service, fingerprint.FromHashes(req.Hashes))
	} else {
		verdict, err = s.engine.ObserveEditFPCtx(r.Context(), req.Seg, req.Service, fingerprint.FromHashes(req.Hashes))
	}
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	s.observes.Inc()
	s.countVerdict(verdict)
	writeVerdict(w, verdict)
}

// handleObserveBatch serves a flush of coalesced observations in one
// request: one JSON decode, one engine batch call, one verdict per item.
func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchObserveRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Service == "" {
		http.Error(w, "service required", http.StatusBadRequest)
		return
	}
	if len(req.Items) == 0 {
		http.Error(w, "items required", http.StatusBadRequest)
		return
	}
	items := make([]disclosure.BatchObservation, len(req.Items))
	for i, item := range req.Items {
		if item.Seg == "" {
			http.Error(w, fmt.Sprintf("item %d: seg required", i), http.StatusBadRequest)
			return
		}
		g, ok := parseGranularity(item.Granularity)
		if !ok {
			http.Error(w, fmt.Sprintf("item %d: unknown granularity", i), http.StatusBadRequest)
			return
		}
		items[i] = disclosure.BatchObservation{
			Seg:         item.Seg,
			FP:          fingerprint.FromHashes(item.Hashes),
			Granularity: g,
		}
	}
	var (
		verdicts []policy.Verdict
		err      error
	)
	if ps := s.partition; ps != nil {
		// Partition mode: batch records carry no Lamport stamps, so apply
		// items one by one through the sole-mode path (stamped resolved
		// records) to keep a split's filtered replay deterministic.
		if !ps.Sole() {
			http.Error(w, "node is a cluster partition: observations go through the routing tier (/v1/part/observe)", http.StatusConflict)
			return
		}
		verdicts = make([]policy.Verdict, len(items))
		for i, item := range items {
			if !ps.Owns(item.Seg) {
				s.writeNotOwner(w, item.Seg)
				return
			}
			verdicts[i], err = s.engine.ObserveSoleFPCtx(r.Context(), item.Seg, req.Service, item.FP, item.Granularity, 0)
			if err != nil {
				break
			}
		}
	} else if s.admission != nil {
		verdicts, err = s.admission.ObserveBatch(r.Context(), req.Service, items)
	} else {
		verdicts, err = s.engine.ObserveBatchFPCtx(r.Context(), req.Service, items)
	}
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	s.observes.Add(uint64(len(verdicts)))
	resp := BatchObserveResponse{Verdicts: make([]Verdict, len(verdicts))}
	for i, v := range verdicts {
		s.countVerdict(v)
		resp.Verdicts[i] = wireVerdict(v)
	}
	writeJSON(w, resp)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Dest == "" {
		http.Error(w, "dest required", http.StatusBadRequest)
		return
	}
	verdict, err := s.engine.CheckFP(fingerprint.FromHashes(req.Hashes), req.Dest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.countVerdict(verdict)
	writeVerdict(w, verdict)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Seg == "" || req.Dest == "" {
		http.Error(w, "seg and dest required", http.StatusBadRequest)
		return
	}
	verdict, err := s.engine.CheckUpload(req.Seg, req.Dest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.countVerdict(verdict)
	writeVerdict(w, verdict)
}

func (s *Server) handleSuppress(w http.ResponseWriter, r *http.Request) {
	var req SuppressRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if ps := s.partition; ps != nil && !ps.Owns(req.Seg) {
		// Suppressions mutate the segment's home label; the audit trail
		// lives there too.
		s.writeNotOwner(w, req.Seg)
		return
	}
	// Route through the engine (not Registry().SuppressTag directly) so the
	// declassification and its audit record hit the durability journal and
	// survive a crash.
	if err := s.engine.Suppress(req.User, req.Seg, req.Tag, req.Justification); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// writeOverload answers admission sheds: 429 Too Many Requests with a
// Retry-After hint (seconds, rounded up) so well-behaved clients back off
// for at least as long as the backlog is old. A pipeline that is draining
// for shutdown answers 503 instead — the capacity is not coming back here,
// and failover clients treat 503 as "try another node".
func writeOverload(w http.ResponseWriter, err error) bool {
	oe, ok := admission.AsOverload(err)
	if !ok {
		return false
	}
	secs := int(math.Ceil(oe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	status := http.StatusTooManyRequests
	if oe.Reason == admission.ReasonDraining {
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
	return true
}

// writeEngineError answers an engine mutation failure: admission sheds get
// their overload mapping, journal failures 503, everything else 400. When
// the journal failure is the fail-closed disk-degraded state, a
// Retry-After of the probe cadence tells clients exactly when recovery
// could next be detected. The engine flattens the journal's typed error
// (fmt %v), so the degraded state is read from the durability source, not
// the error chain.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	if writeOverload(w, err) {
		return
	}
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		if d, ok := s.durabilityStats(); ok && d.Disk.Degraded {
			secs := int(math.Ceil(d.Disk.ProbeEvery.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	}
	http.Error(w, err.Error(), status)
}

// statusFor maps engine errors to HTTP statuses: journal append failures
// mean the mutation's durability is not guaranteed, so the request must
// not be acknowledged (503 invites a retry); everything else is a caller
// error.
func statusFor(err error) int {
	if errors.Is(err, policy.ErrJournal) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// durabilityStats loads the durability source when one is installed and
// currently reporting (a replica has none until promotion).
func (s *Server) durabilityStats() (store.DurabilityStats, bool) {
	if s.durability == nil {
		return store.DurabilityStats{}, false
	}
	return s.durability()
}

// countVerdict folds one verdict into the violation tally and the
// decision-cache hit/miss split.
func (s *Server) countVerdict(v policy.Verdict) {
	if v.Violation() {
		s.violations.Inc()
	}
	if v.CacheHit {
		s.cacheHits.Inc()
	} else {
		s.cacheMisses.Inc()
	}
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	seg := segment.ID(r.URL.Query().Get("seg"))
	if seg == "" {
		http.Error(w, "seg required", http.StatusBadRequest)
		return
	}
	label := s.engine.Registry().Label(seg)
	if label == nil {
		http.Error(w, "unknown segment", http.StatusNotFound)
		return
	}
	writeJSON(w, LabelResponse{
		Explicit:   label.Explicit().Sorted(),
		Implicit:   label.Implicit().Sorted(),
		Suppressed: label.Suppressed().Sorted(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := s.engine.Tracker().Paragraphs().Stats()
	writeJSON(w, StatsResponse{
		Segments:       stats.Segments,
		DistinctHashes: stats.DistinctHashes,
		AuditEntries:   s.engine.Registry().Audit().Len(),
	})
}

// handleHealthz is the liveness probe driving client-side half-open
// breaker trials: a 200 with {"status":"ok"} means the service can answer
// decision traffic again.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	stats := s.engine.Tracker().Paragraphs().Stats()
	resp := HealthResponse{
		Status:   "ok",
		Uptime:   s.obs.Clock().Since(s.started).Round(time.Second).String(),
		Segments: stats.Segments,
	}
	if rs := s.replication; rs != nil {
		status := rs()
		resp.Replication = &status
	}
	if s.policyInfo != nil {
		info := *s.policyInfo
		resp.Policy = &info
	}
	if ps := s.partition; ps != nil {
		lo, hi := ps.KeyRange()
		resp.Partition = &HealthPartition{
			ID:          ps.ID(),
			RingVersion: ps.RingVersion(),
			RangeLo:     lo,
			RangeHi:     hi,
			Resharding:  ps.Resharding(),
		}
	}
	if s.admission != nil {
		st := s.admission.Stats()
		lane := func(ls admission.LaneStats) HealthAdmissionLane {
			return HealthAdmissionLane{
				Depth:         ls.Depth,
				Cap:           ls.Cap,
				Submitted:     ls.Submitted,
				Executed:      ls.Executed,
				Shed:          ls.Shed,
				DeadlineDrops: ls.DeadlineDrops,
			}
		}
		resp.Admission = &HealthAdmission{
			Draining:    st.Draining,
			Folds:       st.Folds,
			Interactive: lane(st.Interactive),
			Bulk:        lane(st.Bulk),
		}
	}
	if d, ok := s.durabilityStats(); ok {
		hs := &HealthStorage{
			ScrubPasses:      d.Scrub.Passes,
			FramesVerified:   d.Scrub.FramesVerified,
			CorruptionsFound: d.Scrub.CorruptionsFound,
			Quarantines:      d.Scrub.Quarantines,
			QuarantinedFiles: d.Scrub.QuarantinedFiles,
			LastCorruption:   d.Scrub.LastCorruption,
			DiskDegraded:     d.Disk.Degraded,
			DegradedCause:    d.Disk.Cause,
			FailOpen:         d.Disk.FailOpen,
			DroppedRecords:   d.Disk.DroppedRecords,
			DiskRecoveries:   d.Disk.Recoveries,
		}
		if !d.Scrub.LastPassAt.IsZero() {
			hs.LastScrubAge = s.obs.Clock().Since(d.Scrub.LastPassAt).Round(time.Second).String()
		}
		resp.Storage = hs
		hd := &HealthDurability{
			WALRecords:       d.WAL.RecordsAppended,
			WALSegments:      d.WAL.Segments,
			Fsyncs:           d.WAL.Fsyncs,
			Checkpoints:      d.Checkpoints,
			CheckpointErrors: d.CheckpointErrors,
			RecordsReplayed:  d.Recovery.RecordsReplayed,
			CheckpointLoaded: d.Recovery.CheckpointLoaded,
		}
		if !d.LastCheckpointAt.IsZero() {
			hd.LastCheckpointAge = s.obs.Clock().Since(d.LastCheckpointAt).Round(time.Second).String()
		}
		resp.Durability = hd
	}
	writeJSON(w, resp)
}

// decodePost decodes a JSON POST body, bounding it with MaxBytesReader:
// oversized bodies get 413, malformed ones 400.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	defer body.Close()
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeVerdict(w http.ResponseWriter, v policy.Verdict) {
	writeJSON(w, wireVerdict(v))
}

// wireVerdict converts a policy verdict to its wire form.
func wireVerdict(v policy.Verdict) Verdict {
	resp := Verdict{Decision: v.Decision.String(), Violating: v.Violating}
	for _, src := range v.Sources {
		resp.Sources = append(resp.Sources, SourceDT{Seg: src.Seg, Disclosure: src.Disclosure})
	}
	return resp
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
