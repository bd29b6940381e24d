// Package node assembles one tag-service node the way bftagd runs it.
// bftagd serves a Node on its listeners; tests build the same Node on an
// in-memory filesystem and reach it over an in-memory transport.
package node

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/dashboard"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/policyfile"
	"github.com/lsds/browserflow/internal/replication"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// Config is a node's settings: bftagd's flags, each field named after its
// flag (PolicyPath is -policy, WALDir -wal-dir, AdmitMaxDwell
// -admit-max-dwell; see `bftagd -h`), plus three seams: the filesystem,
// the transport and the clock. A zero value means what the underlying
// package's zero means.
type Config struct {
	PolicyPath, Passphrase                     string
	PolicyLint                                 bool
	WALDir, Fsync, OnDiskFull, TermFile        string
	FsyncInterval, CheckpointEvery, ScrubEvery time.Duration
	ScrubRateMB                                int
	ReplListen, ReplicaOf, Advertise           string
	MaxBody                                    int64
	ExpireEvery, CompactEvery                  time.Duration
	Retain                                     uint64
	RingFile, PartitionID, SplitRange          string
	CoalesceWindow, AdmitMaxDwell              time.Duration
	AdmitQueue, AdmitBulkQueue, AdmitWorkers   int

	// Open does not read these: they are bftagd's listeners and the
	// timeouts of the servers it runs on them.
	Addr, DebugListen                        string
	ReadTimeout, WriteTimeout, ShutdownGrace time.Duration

	FS        wal.FS            // under WALDir and TermFile; nil is the real one
	Transport http.RoundTripper // a standby's to its primary; nil is http.DefaultTransport
	Clock     clock.Clock       // every timer and timestamp of the node; nil is the real one
}

// Node is one assembled tag-service node. Serve Handler (and, with
// ReplListen set, ReplHandler) until Close.
type Node struct {
	mw       *browserflow.Middleware
	obs      *obs.Obs
	repl     *replication.Service // nil on a memory-only node
	replica  *replication.Replica // nil unless started as a standby
	durable  *store.Durable       // nil on a memory-only node; a standby's follower store
	pipeline *admission.Pipeline
	handler  http.Handler
	debug    http.Handler
	stops    []func() // the tickers
}

// logf reports node events on stderr.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bftagd: "+format+"\n", args...)
}

// Open assembles a node from cfg: it lints and loads the policy file,
// opens the durable store, restores the policy file's services and sets
// the journal, builds the replication role, admission, the tag API and
// its role guard, and starts the tickers. On error nothing stays open.
func Open(cfg Config) (_ *Node, err error) {
	split, err := cfg.check()
	if err != nil {
		return nil, err
	}
	mw, err := browserflow.NewFromPolicyFile(cfg.PolicyPath)
	if err != nil {
		return nil, err
	}

	// Partition mode: the node loads its ring, answers ownership 421s for
	// segments homed elsewhere, and serves the /v1/part/* scatter-gather
	// API to the routing tier.
	var pstate *partState
	if cfg.RingFile != "" {
		if pstate, err = newPartState(cfg.PartitionID, cfg.RingFile, split); err != nil {
			return nil, err
		}
	}

	n := &Node{mw: mw, obs: obs.New(cfg.Clock, 0)}
	defer func() {
		if err != nil && n.pipeline != nil {
			n.pipeline.Close(context.Background()) //nolint:errcheck
		}
		if err != nil {
			n.release()
		}
	}()
	var rnode *replication.Node
	if cfg.WALDir != "" {
		if rnode, err = n.openDurable(cfg, split); err != nil {
			return nil, err
		}
	}

	// Admission control in front of the engine: per-segment coalescing of
	// keystroke observes, bounded lanes with 429 + Retry-After shedding, and
	// graceful drain. Created after the journal is set so every drained job
	// reaches it; Close drains it before the store closes.
	n.pipeline, err = admission.New(mw.Engine(), admission.Config{
		CoalesceWindow:   cfg.CoalesceWindow,
		InteractiveQueue: cfg.AdmitQueue,
		BulkQueue:        cfg.AdmitBulkQueue,
		Workers:          cfg.AdmitWorkers,
		MaxDwell:         cfg.AdmitMaxDwell,
		Obs:              n.obs,
	})
	if err != nil {
		return nil, err
	}
	opts := []tagserver.ServerOption{
		tagserver.WithMaxBodyBytes(cfg.MaxBody),
		tagserver.WithObs(n.obs),
		tagserver.WithPolicyInfo(mw.PolicyHash(), len(mw.Registry().Services())),
		tagserver.WithAdmission(n.pipeline),
	}
	if d := n.durable; d != nil {
		opts = append(opts, tagserver.WithDurabilitySource(func() (store.DurabilityStats, bool) { return d.Stats(), true }))
	}
	if n.repl != nil {
		opts = append(opts, tagserver.WithReplicationStatus(n.replicationStatus))
	}
	if pstate != nil {
		opts = append(opts, tagserver.WithPartition(pstate))
	}
	server, err := tagserver.NewServer(mw.Engine(), opts...)
	if err != nil {
		return nil, err
	}

	// The write guard fences mutations on a non-primary node; the
	// /v1/repl/* API is mounted here unless ReplListen moves it to its own
	// listener.
	n.handler = server
	if n.repl != nil {
		mux := http.NewServeMux()
		if cfg.ReplListen == "" {
			mux.Handle("/v1/repl/", n.repl.Handler())
		}
		mux.Handle("/", replication.Guard(rnode, server, logf))
		n.handler = mux
	}

	dash, err := dashboard.New(mw.Tracker(), mw.Registry())
	if err != nil {
		return nil, err
	}
	debug := http.NewServeMux()
	debug.Handle("/", n.obs.DebugHandler())
	debug.Handle("/dashboard/", http.StripPrefix("/dashboard", dash))
	n.debug = debug

	// Periodic removal of old fingerprints (§4.4): postings more than
	// Retain observations behind their database's clock are dropped.
	tr := mw.Tracker()
	n.every(cfg.ExpireEvery, func() {
		for _, db := range []*index.DB{tr.Paragraphs(), tr.Documents()} {
			if now := db.Now(); now > cfg.Retain {
				db.ExpireBefore(now - cfg.Retain)
			}
		}
	})
	// Periodic index compaction: merge the mutable posting heads into their
	// runs so a long-lived node converges on the compact layout instead of
	// accumulating head growth between the size-triggered merges.
	n.every(cfg.CompactEvery, func() { tr.Paragraphs().Compact(); tr.Documents().Compact() })
	return n, nil
}

// Check reports what Open refuses before it opens anything: flags that do
// not go together, a malformed -split-range, a policy that fails lint.
// bftagd runs it before it listens, so a busy address cannot hide these.
func (cfg Config) Check() error {
	_, err := cfg.check()
	return err
}

// check is Check, returning the parsed -split-range too.
func (cfg Config) check() (split *segment.KeyRange, err error) {
	switch {
	case cfg.PolicyPath == "":
		return nil, errors.New("-policy is required")
	case cfg.ReplicaOf != "" && cfg.WALDir == "":
		return nil, errors.New("-replica-of requires -wal-dir for the mirrored log")
	case cfg.RingFile != "" && cfg.PartitionID == "":
		return nil, errors.New("-ring-file requires -partition-id")
	case cfg.SplitRange != "" && cfg.RingFile == "":
		return nil, errors.New("-split-range requires -ring-file")
	case cfg.SplitRange != "":
		if split, err = parseSplitRange(cfg.SplitRange); err != nil {
			return nil, err
		}
	}
	if cfg.PolicyLint {
		err = lintPolicy(cfg.PolicyPath)
	}
	return split, err
}

// every runs fn every d from the node's opening until it closes; d <= 0
// never runs it.
func (n *Node) every(d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	t := n.obs.Clock().NewTimer(d)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		clock.Every(n.obs.Clock(), t, d, stop, func() bool { fn(); return true })
	}()
	n.stops = append(n.stops, func() { close(stop); <-done })
}

// openDurable gives the node its durable store and replication role. One
// store.DurableOptions describes the directory whichever role the node
// starts in: a primary opens it as its journal, a standby as a follower of
// its primary's log, and promotion flips the role of that same store.
func (n *Node) openDurable(cfg Config, split *segment.KeyRange) (*replication.Node, error) {
	fsync, err := wal.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	var key []byte
	if cfg.Passphrase != "" {
		key = store.DeriveKey(cfg.Passphrase)
	}
	mw := n.mw
	dopts := store.DurableOptions{
		Dir:             cfg.WALDir,
		FS:              cfg.FS,
		Clock:           cfg.Clock,
		Key:             key,
		Fsync:           fsync,
		FsyncInterval:   cfg.FsyncInterval,
		CheckpointEvery: cfg.CheckpointEvery,
		ScrubEvery:      cfg.ScrubEvery,
		ScrubRateMB:     cfg.ScrubRateMB,
		OnDiskFull:      cfg.OnDiskFull,
		KeyRange:        split,
		// Disk-fault policy follows the engine mode: an advisory
		// deployment keeps serving verdicts from memory on a dead disk
		// (fail-open); enforcing/encrypting deployments stop acking
		// (fail-closed) — nothing is confirmed the journal cannot hold.
		FailOpen: mw.Engine().Mode() == policy.ModeAdvisory,
		Logf:     logf,
	}
	if cfg.ReplicaOf == "" {
		// The policy file is the source of truth for service definitions:
		// services added to it since the last checkpoint survive the
		// restore.
		policyServices := mw.Registry().Services()
		if n.durable, err = store.OpenDurable(dopts, mw.Tracker(), mw.Registry()); err != nil {
			return nil, fmt.Errorf("open wal dir: %w", err)
		}
		for _, svc := range policyServices {
			err := mw.Registry().RegisterService(svc.Name, svc.Privilege, svc.Confidentiality)
			if err != nil && !errors.Is(err, tdm.ErrServiceExists) {
				return nil, fmt.Errorf("re-register service %s: %w", svc.Name, err)
			}
		}
		mw.Engine().SetJournal(n.durable)

		rec := n.durable.Stats().Recovery
		fmt.Printf("bftagd: durability on (%s, fsync=%s): recovered %d WAL records on top of %q, truncated %d torn bytes, in %v\n",
			cfg.WALDir, dopts.Fsync, rec.RecordsReplayed, rec.CheckpointLoaded, rec.TornBytesTruncated, rec.Duration.Round(time.Millisecond))
	}

	termFile := cfg.TermFile
	if termFile == "" {
		termFile = filepath.Join(cfg.WALDir, "TERM")
	}
	role := replication.RolePrimary
	if cfg.ReplicaOf != "" {
		role = replication.RoleReplica
	}
	node, err := replication.NewNode(replication.NodeOptions{
		Role:     role,
		Self:     cfg.Advertise,
		Primary:  cfg.ReplicaOf,
		TermFile: termFile,
		FS:       cfg.FS,
		Logf:     logf,
	})
	if err != nil {
		return nil, err
	}
	primaryOpts := replication.PrimaryOptions{Logf: logf}
	n.repl = replication.NewService(node, primaryOpts, logf)
	n.repl.SetObs(n.obs)
	if cfg.ReplicaOf == "" {
		n.repl.SetPrimary(replication.NewPrimary(node, n.durable, primaryOpts))
		return node, nil
	}

	// A standby: the store follows the primary's log and feeds the engine.
	var client *http.Client
	if cfg.Transport != nil {
		client = &http.Client{Transport: cfg.Transport}
	}
	n.replica, err = replication.OpenReplica(node, mw.Engine(), replication.ReplicaOptions{
		Durable:    dopts,
		HTTPClient: client,
		Obs:        n.obs,
	})
	if err != nil {
		return nil, fmt.Errorf("open replica dir: %w", err)
	}
	n.durable = n.replica.Durable()
	n.repl.SetReplica(n.replica)
	n.replica.Start()
	st := n.replica.Status()
	fmt.Printf("bftagd: replica of %s (term %d, resuming at %s)\n", cfg.ReplicaOf, st.Term, st.Position)
	return node, nil
}

// lintPolicy refuses a policy file with any lint diagnostic, warnings
// included, listing each on stderr.
func lintPolicy(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	diags := policyfile.Lint(data)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "bftagd: %s: %s\n", path, d)
	}
	if len(diags) > 0 {
		return fmt.Errorf("policy lint failed: %d diagnostic(s) in %s (use -policy-lint=false to serve anyway)", len(diags), path)
	}
	return nil
}

func (n *Node) replicationStatus() tagserver.HealthReplication {
	st := n.repl.Status()
	return tagserver.HealthReplication{Role: st.Role, Term: st.Term, Primary: st.Primary, Position: st.Position,
		LagRecords: st.LagRecords, LagBytes: st.LagBytes, AppliedRecords: st.AppliedRecords,
		Bootstraps: st.Bootstraps, Connected: st.Connected, LastError: st.LastError}
}

// Handler is the node's main API: the tag service behind the role guard,
// plus /v1/repl/* unless ReplListen was set.
func (n *Node) Handler() http.Handler { return n.handler }

// ReplHandler is the /v1/repl/* API for a ReplListen listener; nil on a
// memory-only node.
func (n *Node) ReplHandler() http.Handler {
	if n.repl == nil {
		return nil
	}
	return n.repl.Handler()
}

// DebugHandler serves pprof, /v1/metrics, /v1/debug/traces and the
// read-only dashboard under /dashboard/.
func (n *Node) DebugHandler() http.Handler { return n.debug }

// Stats reports the engine's database sizes.
func (n *Node) Stats() browserflow.Stats { return n.mw.Stats() }

// Close shuts the node down in the one order that loses nothing. It drains
// the admission queues while it shuts down the given servers: in-flight
// observe handlers wait for verdicts on queued (possibly debouncing) jobs
// and Shutdown waits for those handlers, so draining after Shutdown
// returned would deadlock until ctx expired. Then it stops the tickers and
// the standby's stream, and only then closes the durable store, with a
// final checkpoint: every accepted-but-queued observe has reached the WAL.
// Call it once.
func (n *Node) Close(ctx context.Context, servers ...*http.Server) error {
	drained := make(chan error, 1)
	go func() { drained <- n.pipeline.Close(ctx) }()
	var err error
	for _, srv := range servers {
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	if derr := <-drained; derr != nil {
		logf("drain admission: %v", derr)
		if err == nil {
			err = derr
		}
	}
	n.release()
	return err
}

// release stops the tickers and the standby's stream, so nothing mutates
// or streams into the store, then closes the store.
func (n *Node) release() {
	for _, stop := range n.stops {
		stop()
	}
	if n.replica != nil {
		n.replica.Stop()
	}
	if n.durable != nil {
		if err := n.durable.Close(); err != nil {
			logf("flush durability: %v", err)
		}
	}
}
