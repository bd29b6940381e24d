package replication

import (
	"encoding/json"
	"net/http"
	"sync"

	"github.com/lsds/browserflow/internal/obs"
)

// Service multiplexes the /v1/repl/* endpoints over swappable role
// components: a node can boot as a replica and become a primary in
// place when /v1/repl/promote (bfctl promote) fires.
type Service struct {
	node        *Node
	primaryOpts PrimaryOptions
	logf        func(string, ...interface{})

	mu      sync.Mutex
	primary *Primary
	replica *Replica
	obs     *obs.Obs
}

// NewService builds the replication service for node. primaryOpts is
// used both for an initially installed Primary and for the one built on
// in-place promotion.
func NewService(node *Node, primaryOpts PrimaryOptions, logf func(format string, args ...interface{})) *Service {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &Service{node: node, primaryOpts: primaryOpts, logf: logf}
}

// SetObs installs the observability bundle; call before Handler so the
// /v1/repl/* endpoints are wrapped with RED metrics and trace lifting.
func (s *Service) SetObs(o *obs.Obs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

// SetPrimary installs the serving side (the node is a primary).
func (s *Service) SetPrimary(p *Primary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.primary = p
}

// SetReplica installs the consuming side (the node is a replica).
func (s *Service) SetReplica(r *Replica) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replica = r
}

// Replica returns the installed replica component (nil on a primary).
func (s *Service) Replica() *Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

// Status reports the node's replication state regardless of role.
func (s *Service) Status() ReplicaStatus {
	s.mu.Lock()
	primary, replica := s.primary, s.replica
	s.mu.Unlock()
	role, term, primaryAddr := s.node.Snapshot()
	if role != RolePrimary && replica != nil {
		return replica.Status()
	}
	st := ReplicaStatus{
		Role:      role.String(),
		Term:      term,
		Primary:   primaryAddr,
		Connected: true,
	}
	if primary != nil {
		st.Position = primary.durable.WAL().End().String()
		st.AppliedRecords = primary.durable.WAL().Stats().RecordsAppended
	}
	return st
}

// Handler returns the /v1/repl/* mux. When an observability bundle is
// installed (SetObs), every endpoint is wrapped with RED metrics and
// inbound trace lifting; Instrument is nil-safe, so uninstrumented
// deployments serve the raw handlers unchanged.
func (s *Service) Handler() http.Handler {
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	mux := http.NewServeMux()
	handle := func(path, endpoint string, h http.HandlerFunc) {
		mux.Handle(path, o.Instrument(endpoint, h))
	}
	handle("/v1/repl/snapshot", "repl.snapshot", s.withPrimary(func(p *Primary, w http.ResponseWriter, r *http.Request) {
		p.handleSnapshot(w, r)
	}))
	handle("/v1/repl/stream", "repl.stream", s.withPrimary(func(p *Primary, w http.ResponseWriter, r *http.Request) {
		p.handleStream(w, r)
	}))
	handle("/v1/repl/digest", "repl.digest", s.withPrimary(func(p *Primary, w http.ResponseWriter, r *http.Request) {
		p.handleDigest(w, r)
	}))
	handle("/v1/repl/fence", "repl.fence", handleFence(s.node, s.logf))
	handle("/v1/repl/status", "repl.status", s.handleStatus)
	handle("/v1/repl/promote", "repl.promote", s.handlePromote)
	return mux
}

// withPrimary dispatches to the installed Primary component, answering
// 421 when this node cannot serve the replication log.
func (s *Service) withPrimary(fn func(*Primary, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		p := s.primary
		s.mu.Unlock()
		if p == nil || s.node.Role() != RolePrimary {
			role, _, _ := s.node.Snapshot()
			writeError(w, s.node, http.StatusMisdirectedRequest,
				"node is "+role.String()+": replication log is served by the primary")
			return
		}
		fn(p, w, r)
	}
}

// handleStatus serves the node's replication state.
func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, s.node, http.StatusMethodNotAllowed, "GET only")
		return
	}
	setTermHeaders(w, s.node)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Status()) //nolint:errcheck
}

// handlePromote promotes this node to primary in place (Replica.Promote:
// streaming stops, the store's journal is made ready, the term is bumped
// and persisted, the role flips), then installs the serving side of the
// replication API so further replicas can chain off the new primary. A
// failed promotion answers 5xx and leaves a streaming standby.
func (s *Service) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, s.node, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.mu.Lock()
	replica := s.replica
	alreadyPrimary := s.node.Role() == RolePrimary
	s.mu.Unlock()

	if alreadyPrimary {
		s.writePromoteResult(w, false)
		return
	}
	if replica == nil {
		writeError(w, s.node, http.StatusConflict, "node has no replica component to promote")
		return
	}

	durable, term, err := replica.Promote()
	if err != nil {
		writeError(w, s.node, http.StatusInternalServerError, "promote: "+err.Error())
		return
	}
	s.mu.Lock()
	s.primary = NewPrimary(s.node, durable, s.primaryOpts)
	s.mu.Unlock()
	s.logf("replication: promoted to primary at term %d", term)
	s.writePromoteResult(w, true)
}

// writePromoteResult answers a promote request with the node's state.
func (s *Service) writePromoteResult(w http.ResponseWriter, promoted bool) {
	role, term, primary := s.node.Snapshot()
	setTermHeaders(w, s.node)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{ //nolint:errcheck
		"promoted": promoted,
		"role":     role.String(),
		"term":     term,
		"primary":  primary,
	})
}
