// Command bftagd runs the shared enterprise tag service: a central
// BrowserFlow engine that devices sync fingerprint hashes through, making
// disclosure tracking consistent across every employee's browser.
//
// Usage:
//
//	bftagd -policy policy.json -addr :7000
//	bftagd -policy policy.json -wal-dir /var/lib/bftagd \
//	       -fsync interval -fsync-interval 50ms -checkpoint-every 1m
//	bftagd -policy policy.json -read-timeout 10s -write-timeout 30s \
//	       -shutdown-grace 10s -max-body 1048576
//
// The policy file is compiled at startup: service classes and
// propagation rules are resolved into flat bitset check tables installed
// on the registry, and the compile fingerprint is published on /healthz
// so a fleet can be audited for policy agreement. Before compiling, the
// file is linted (bfctl policy lint's analysis) and the server refuses to
// start on any diagnostic — including warnings like fail-open holes —
// unless -policy-lint=false.
//
// Devices connect with internal/tagserver.Client; text never leaves the
// device — only winnowed fingerprint hashes cross the wire. The server
// exposes /healthz for the client-side failover layer's recovery probes,
// carries read/write timeouts so slow peers cannot wedge it, bounds
// request bodies (413 past -max-body), and drains in-flight requests on
// SIGINT/SIGTERM before stopping the expiry janitor and flushing state.
//
// With -wal-dir, every state mutation is journalled to a write-ahead log
// and checkpointed in the background; after a crash the service recovers
// the newest checkpoint plus the surviving WAL suffix. Without it the
// daemon is memory-only: nothing is loaded at start or saved at exit.
//
// A durable bftagd is also a replication primary: it serves
// /v1/repl/snapshot and /v1/repl/stream so replicas can bootstrap from a
// checkpoint and tail the WAL. Start a standby replica with
//
//	bftagd -policy policy.json -wal-dir /var/lib/bftagd-replica \
//	       -replica-of http://primary:7000 -addr :7001
//
// The replica follows the primary's log byte for byte into its own
// -wal-dir — run by the same durable store, under the same storage flags,
// as a primary's — serves read-only traffic, and answers writes with 421 +
// the primary's address. `bfctl promote` flips a caught-up replica into
// the new primary under a higher fencing term; the deposed primary refuses
// writes once it observes that term. -term-file overrides where the term
// is persisted, -repl-listen moves the replication API onto its own
// listener, and -advertise sets the URL peers are redirected to.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/obs"
	policyPkg "github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/policyfile"
	"github.com/lsds/browserflow/internal/replication"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bftagd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bftagd", flag.ContinueOnError)
	var (
		policyPath   = fs.String("policy", "", "policy JSON file (required)")
		policyLint   = fs.Bool("policy-lint", true, "lint the policy file at startup and refuse to serve on any diagnostic (including warnings)")
		passphrase   = fs.String("passphrase", "", "passphrase encrypting checkpoints at rest")
		walDir       = fs.String("wal-dir", "", "directory for the write-ahead log and checkpoints (enables crash-safe durability)")
		fsyncMode    = fs.String("fsync", "always", "WAL fsync policy: always | interval | none")
		fsyncEvery   = fs.Duration("fsync-interval", wal.DefaultSyncInterval, "group-commit cadence for -fsync interval")
		ckptEvery    = fs.Duration("checkpoint-every", time.Minute, "background checkpoint cadence (0 = checkpoint only at shutdown)")
		scrubEvery   = fs.Duration("scrub-every", time.Hour, "at-rest scrub cadence re-verifying sealed WAL segments and checkpoints (0 disables)")
		scrubRateMB  = fs.Int("scrub-rate-mb", 8, "scrub read-rate bound in MiB/s (0 = unthrottled)")
		onDiskFull   = fs.String("on-disk-full", store.OnDiskFullPrune, "ENOSPC policy: prune (free obsolete segments/checkpoints and retry) | fail (degrade immediately)")
		addr         = fs.String("addr", ":7000", "listen address")
		expire       = fs.Duration("expire-every", 0, "run fingerprint expiry at this interval (0 disables)")
		compactEvery = fs.Duration("compact-every", 10*time.Minute, "merge index heads into their compacted runs at this interval (0 disables)")
		retain       = fs.Uint64("retain", 100000, "observations to retain when expiry runs")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "per-request read timeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "per-request write timeout")
		grace        = fs.Duration("shutdown-grace", 10*time.Second, "time allowed for in-flight requests to drain on SIGINT/SIGTERM")
		maxBody      = fs.Int64("max-body", tagserver.DefaultMaxBodyBytes, "maximum request body size in bytes (413 past this)")
		replicaOf    = fs.String("replica-of", "", "run as a standby replica of this primary URL (requires -wal-dir for the mirrored log)")
		replListen   = fs.String("repl-listen", "", "serve the /v1/repl/* API on this separate address (default: the main -addr)")
		termFile     = fs.String("term-file", "", "file persisting the replication fencing term (default: <wal-dir>/TERM)")
		advertise    = fs.String("advertise", "", "base URL peers are told to dial for this node (default: http://<listen addr>)")
		debugListen  = fs.String("debug-listen", "", "serve pprof + /v1/metrics + /v1/debug/traces on this address (loopback only; empty disables)")

		ringFile    = fs.String("ring-file", "", "partition ring file (enables partition mode; flips are persisted here)")
		partitionID = fs.String("partition-id", "", "this node's partition ID in the ring (required with -ring-file)")
		splitRange  = fs.String("split-range", "", "inclusive key range lo:hi this node owns during a split (filtered replica bootstrap, or restart of a promoted split target)")

		coalesceWindow = fs.Duration("coalesce-window", 0, "debounce window folding a segment's keystroke observes into one engine call (0 folds only under backlog)")
		admitQueue     = fs.Int("admit-queue", 4096, "interactive admission queue depth (arrivals past it are shed with 429)")
		admitBulkQueue = fs.Int("admit-bulk-queue", 256, "bulk (batch flush) admission queue depth")
		admitWorkers   = fs.Int("admit-workers", 0, "admission worker concurrency (0 = GOMAXPROCS)")
		admitDwell     = fs.Duration("admit-max-dwell", 2*time.Second, "interactive head-of-line age past which arrivals are shed; the bulk lane sheds at a quarter of it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyPath == "" {
		return fmt.Errorf("-policy is required")
	}
	if *replicaOf != "" && *walDir == "" {
		return fmt.Errorf("-replica-of requires -wal-dir for the mirrored log")
	}
	if *ringFile != "" && *partitionID == "" {
		return fmt.Errorf("-ring-file requires -partition-id")
	}
	if *splitRange != "" && *ringFile == "" {
		return fmt.Errorf("-split-range requires -ring-file")
	}
	var split *segment.KeyRange
	if *splitRange != "" {
		var serr error
		split, serr = parseSplitRange(*splitRange)
		if serr != nil {
			return serr
		}
	}
	if *policyLint {
		data, rerr := os.ReadFile(*policyPath)
		if rerr != nil {
			return rerr
		}
		if diags := policyfile.Lint(data); len(diags) > 0 {
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "bftagd: %s: %s\n", *policyPath, d)
			}
			return fmt.Errorf("policy lint failed: %d diagnostic(s) in %s (use -policy-lint=false to serve anyway)", len(diags), *policyPath)
		}
	}
	mw, err := browserflow.NewFromPolicyFile(*policyPath)
	if err != nil {
		return err
	}

	var key []byte
	if *passphrase != "" {
		key = store.DeriveKey(*passphrase)
	}
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "bftagd: "+format+"\n", args...)
	}

	// Listen before building the replication node so the default
	// advertised address can include the kernel-assigned port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *advertise == "" {
		*advertise = "http://" + ln.Addr().String()
	}

	// Observability bundle: RED metrics + span ring shared by the tag
	// service handlers, the replication API, and the replica applier.
	o := obs.New(nil, 0)

	// durableBox is the node's durable store, whichever role it runs in —
	// a primary's journal or a standby's follower, the same one before and
	// after a promotion — behind /healthz durability stats; nil on a
	// memory-only node.
	var durableBox atomic.Pointer[store.Durable]
	defer func() {
		if d := durableBox.Swap(nil); d != nil {
			d.Close()
		}
	}()

	// Partition mode: the node loads its ring, answers ownership 421s for
	// segments homed elsewhere, and serves the /v1/part/* scatter-gather
	// API to the routing tier.
	var pstate *partState
	if *ringFile != "" {
		pstate, err = newPartState(*partitionID, *ringFile, split, logf)
		if err != nil {
			ln.Close()
			return err
		}
	}

	primaryOpts := replication.PrimaryOptions{Logf: logf}

	// Replication state: every durable node gets a fencing term and the
	// /v1/repl/* API; memory-only nodes are standalone. dopts describes
	// the node's durable directory once, whichever role it starts in: a
	// primary opens it as its journal, a replica as a follower of the
	// primary's, and promotion flips the role of that same store.
	var node *replication.Node
	var replService *replication.Service
	var dopts store.DurableOptions
	if *walDir != "" {
		fsync, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			ln.Close()
			return err
		}
		dopts = store.DurableOptions{
			Dir:             *walDir,
			Key:             key,
			Fsync:           fsync,
			FsyncInterval:   *fsyncEvery,
			CheckpointEvery: *ckptEvery,
			ScrubEvery:      *scrubEvery,
			ScrubRateMB:     *scrubRateMB,
			OnDiskFull:      *onDiskFull,
			KeyRange:        split,
			// Disk-fault policy follows the engine mode: an advisory
			// deployment keeps serving verdicts from memory on a dead disk
			// (fail-open); enforcing/encrypting deployments stop acking
			// (fail-closed) — nothing is confirmed the journal cannot hold.
			FailOpen: mw.Engine().Mode() == policyPkg.ModeAdvisory,
			Logf:     logf,
		}
		if *termFile == "" {
			*termFile = filepath.Join(*walDir, "TERM")
		}
		role := replication.RolePrimary
		if *replicaOf != "" {
			role = replication.RoleReplica
		}
		node, err = replication.NewNode(replication.NodeOptions{
			Role:     role,
			Self:     *advertise,
			Primary:  *replicaOf,
			TermFile: *termFile,
			Logf:     logf,
		})
		if err != nil {
			ln.Close()
			return err
		}
		replService = replication.NewService(node, primaryOpts, logf)
		replService.SetObs(o)
	}

	// Durable primary mode: recover checkpoint + WAL, then journal every
	// mutation and serve the replication log.
	var durable *store.Durable
	serverOpts := []tagserver.ServerOption{
		tagserver.WithMaxBodyBytes(*maxBody),
		tagserver.WithObs(o),
		tagserver.WithPolicyInfo(mw.PolicyHash(), len(mw.Registry().Services())),
	}
	serverOpts = append(serverOpts, tagserver.WithDurabilitySource(func() (store.DurabilityStats, bool) {
		if d := durableBox.Load(); d != nil {
			return d.Stats(), true
		}
		return store.DurabilityStats{}, false
	}))
	if replService != nil {
		serverOpts = append(serverOpts, tagserver.WithReplicationStatus(func() tagserver.HealthReplication {
			st := replService.Status()
			return tagserver.HealthReplication{
				Role:           st.Role,
				Term:           st.Term,
				Primary:        st.Primary,
				Position:       st.Position,
				LagRecords:     st.LagRecords,
				LagBytes:       st.LagBytes,
				AppliedRecords: st.AppliedRecords,
				Bootstraps:     st.Bootstraps,
				Connected:      st.Connected,
				LastError:      st.LastError,
			}
		}))
	}
	var replica *replication.Replica
	if *replicaOf != "" {
		// Replica mode: the durable store follows the primary's log and the
		// engine is fed by it; promotion flips its role in place.
		replica, err = replication.OpenReplica(node, mw.Engine(), replication.ReplicaOptions{
			Durable: dopts,
			Obs:     o,
		})
		if err != nil {
			ln.Close()
			return fmt.Errorf("open replica dir: %w", err)
		}
		durableBox.Store(replica.Durable())
		replService.SetReplica(replica)
		replica.Start()
		defer replica.Stop()
		st := replica.Status()
		fmt.Printf("bftagd: replica of %s (term %d, resuming at %s)\n", *replicaOf, st.Term, st.Position)
	} else if *walDir != "" {
		// The policy file is the source of truth for service definitions;
		// remember them so services added to the file since the last
		// checkpoint survive the restore below.
		policyServices := mw.Registry().Services()

		durable, err = store.OpenDurable(dopts, mw.Tracker(), mw.Registry())
		if err != nil {
			return fmt.Errorf("open wal dir: %w", err)
		}
		durableBox.Store(durable)

		// Re-register policy-file services the checkpoint restore dropped.
		for _, svc := range policyServices {
			err := mw.Registry().RegisterService(svc.Name, svc.Privilege, svc.Confidentiality)
			if err != nil && !errors.Is(err, tdm.ErrServiceExists) {
				return fmt.Errorf("re-register service %s: %w", svc.Name, err)
			}
		}

		mw.Engine().SetJournal(durable)
		replService.SetPrimary(replication.NewPrimary(node, durable, primaryOpts))

		rec := durable.Stats().Recovery
		fmt.Printf("bftagd: durability on (%s, fsync=%s): recovered %d WAL records", *walDir, dopts.Fsync, rec.RecordsReplayed)
		if rec.CheckpointLoaded != "" {
			fmt.Printf(" on top of %s", rec.CheckpointLoaded)
		}
		if rec.TornBytesTruncated > 0 {
			fmt.Printf(", truncated %d torn bytes", rec.TornBytesTruncated)
		}
		fmt.Printf(" in %v\n", rec.Duration.Round(time.Millisecond))
	}

	// Admission control in front of the engine: per-segment coalescing of
	// keystroke observes, bounded lanes with 429 + Retry-After shedding, and
	// graceful drain. Created after the durability wiring so every drained
	// job reaches the journal, and closed (deferred below, explicitly on
	// SIGTERM) BEFORE the durable store: drain-then-close is what keeps
	// accepted-but-queued observes from being lost on shutdown.
	pipeline, err := admission.New(mw.Engine(), admission.Config{
		CoalesceWindow:   *coalesceWindow,
		InteractiveQueue: *admitQueue,
		BulkQueue:        *admitBulkQueue,
		Workers:          *admitWorkers,
		MaxDwell:         *admitDwell,
		Obs:              o,
	})
	if err != nil {
		ln.Close()
		return err
	}
	serverOpts = append(serverOpts, tagserver.WithAdmission(pipeline))
	// Registered after the durableBox defer, so it runs before it:
	// queues drain through the engine while the WAL is still open.
	defer pipeline.Close(context.Background()) //nolint:errcheck

	if pstate != nil {
		serverOpts = append(serverOpts, tagserver.WithPartition(pstate))
	}
	server, err := tagserver.NewServer(mw.Engine(), serverOpts...)
	if err != nil {
		return err
	}

	// Periodic removal of old fingerprints (§4.4). Deferred shutdown runs
	// after the HTTP server has drained, so the janitor never races
	// in-flight requests at exit.
	if *expire > 0 {
		janitor := store.NewJanitor(mw.Tracker(), *expire, *retain)
		defer janitor.Shutdown()
	}

	// Periodic index compaction: merge the mutable posting heads into their
	// delta-encoded runs so a long-lived daemon converges on the compact
	// corpus-scale layout instead of accumulating head growth between the
	// size-triggered merges.
	if *compactEvery > 0 {
		compactStop := make(chan struct{})
		go func() {
			ticker := time.NewTicker(*compactEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					mw.Tracker().Paragraphs().Compact()
					mw.Tracker().Documents().Compact()
				case <-compactStop:
					return
				}
			}
		}()
		defer close(compactStop)
	}

	handler := http.Handler(server)

	// Replication wiring: the write guard fences mutations on non-primary
	// nodes, and the /v1/repl/* API is mounted either on the main address
	// or (with -repl-listen) on its own listener.
	var replSrv *http.Server
	var replLn net.Listener
	if replService != nil {
		mux := http.NewServeMux()
		if *replListen == "" {
			mux.Handle("/v1/repl/", replService.Handler())
		} else {
			replLn, err = net.Listen("tcp", *replListen)
			if err != nil {
				ln.Close()
				return fmt.Errorf("repl listen: %w", err)
			}
			replSrv = &http.Server{
				Handler:           replService.Handler(),
				ReadHeaderTimeout: *readTimeout,
				IdleTimeout:       2 * *readTimeout,
			}
		}
		mux.Handle("/", replication.Guard(node, handler, logf))
		handler = mux
	}

	srv := &http.Server{
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * *readTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	if replSrv != nil {
		go func() { errCh <- replSrv.Serve(replLn) }()
		fmt.Printf("bftagd: replication API on %s\n", replLn.Addr())
	}

	// Opt-in debug surface: pprof, Prometheus exposition and the span
	// ring on their own (ideally loopback) listener.
	var dbgSrv *http.Server
	if *debugListen != "" {
		dbgLn, err := net.Listen("tcp", *debugListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listen: %w", err)
		}
		dbgSrv = &http.Server{Handler: o.DebugHandler(), ReadHeaderTimeout: *readTimeout}
		go func() { errCh <- dbgSrv.Serve(dbgLn) }()
		fmt.Printf("bftagd: debug API (pprof, metrics, traces) on %s\n", dbgLn.Addr())
	}

	stats := mw.Stats()
	fmt.Printf("bftagd: serving on %s (%d segments, %d hashes)\n",
		ln.Addr(), stats.ParagraphSegments, stats.DistinctHashes)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling for a second Ctrl-C
		fmt.Fprintln(os.Stderr, "bftagd: shutting down...")
		shCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Drain the admission queues CONCURRENTLY with the HTTP shutdown:
		// in-flight observe handlers are blocked awaiting verdicts for
		// queued (possibly debouncing) jobs, and srv.Shutdown waits for
		// those handlers — draining after it returns would deadlock until
		// the grace expires. Drain completes (so handlers unblock and
		// Shutdown can finish), and only then does the durable store
		// close: every accepted-but-queued observe reaches the WAL, or a
		// clean SIGTERM silently drops acknowledged work.
		drainCh := make(chan error, 1)
		go func() { drainCh <- pipeline.Close(shCtx) }()
		shutdownErr := srv.Shutdown(shCtx)
		if err := <-drainCh; err != nil {
			fmt.Fprintln(os.Stderr, "bftagd: drain admission:", err)
			if shutdownErr == nil {
				shutdownErr = err
			}
		}
		if replSrv != nil {
			if err := replSrv.Shutdown(shCtx); err != nil && shutdownErr == nil {
				shutdownErr = err
			}
		}
		if dbgSrv != nil {
			if err := dbgSrv.Shutdown(shCtx); err != nil && shutdownErr == nil {
				shutdownErr = err
			}
		}
		if replica != nil {
			replica.Stop() // nothing streams into a store that is closing
		}
		if d := durableBox.Swap(nil); d != nil {
			// Final checkpoint + WAL sync so a clean SIGTERM leaves a fresh
			// checkpoint and an empty replay set.
			if err := d.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bftagd: flush durability:", err)
			}
		}
		return shutdownErr
	}
}
