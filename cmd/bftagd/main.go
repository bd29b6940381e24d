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
// propagation rules are resolved into flat per-service labels the
// registry is built from, and the compile fingerprint is published on
// /healthz so a fleet can be audited for policy agreement. Before
// compiling, the file is linted (bfctl policy lint's analysis) and the
// server refuses to start on any diagnostic — including warnings like
// fail-open holes — unless -policy-lint=false.
//
// Devices connect with internal/tagserver.Client; text never leaves the
// device — only winnowed fingerprint hashes cross the wire. The server
// exposes /healthz for the client-side failover layer's recovery probes,
// carries read/write timeouts so slow peers cannot wedge it, bounds
// request bodies (413 past -max-body), and drains in-flight requests on
// SIGINT/SIGTERM before stopping the expiry ticker and flushing state.
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
// -debug-listen adds pprof, metrics, traces and the read-only dashboard
// (/dashboard/) on a side listener. The node is assembled by internal/node.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/lsds/browserflow/internal/node"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bftagd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var cfg node.Config
	fs := flag.NewFlagSet("bftagd", flag.ContinueOnError)
	fs.StringVar(&cfg.PolicyPath, "policy", "", "policy JSON file (required)")
	fs.BoolVar(&cfg.PolicyLint, "policy-lint", true, "lint the policy file at startup and refuse to serve on any diagnostic (including warnings)")
	fs.StringVar(&cfg.Passphrase, "passphrase", "", "passphrase encrypting checkpoints at rest")
	fs.StringVar(&cfg.WALDir, "wal-dir", "", "directory for the write-ahead log and checkpoints (enables crash-safe durability)")
	fs.StringVar(&cfg.Fsync, "fsync", "always", "WAL fsync policy: always | interval | none")
	fs.DurationVar(&cfg.FsyncInterval, "fsync-interval", wal.DefaultSyncInterval, "group-commit cadence for -fsync interval")
	fs.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", time.Minute, "background checkpoint cadence (0 = checkpoint only at shutdown)")
	fs.DurationVar(&cfg.ScrubEvery, "scrub-every", time.Hour, "at-rest scrub cadence re-verifying sealed WAL segments and checkpoints (0 disables)")
	fs.IntVar(&cfg.ScrubRateMB, "scrub-rate-mb", 8, "scrub read-rate bound in MiB/s (0 = unthrottled)")
	fs.StringVar(&cfg.OnDiskFull, "on-disk-full", store.OnDiskFullPrune, "ENOSPC policy: prune (free obsolete segments/checkpoints and retry) | fail (degrade immediately)")
	fs.StringVar(&cfg.Addr, "addr", ":7000", "listen address")
	fs.DurationVar(&cfg.ExpireEvery, "expire-every", 0, "run fingerprint expiry at this interval (0 disables)")
	fs.DurationVar(&cfg.CompactEvery, "compact-every", 10*time.Minute, "merge index heads into their compacted runs at this interval (0 disables)")
	fs.Uint64Var(&cfg.Retain, "retain", 100000, "observations to retain when expiry runs")
	fs.DurationVar(&cfg.ReadTimeout, "read-timeout", 10*time.Second, "per-request read timeout")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 30*time.Second, "per-request write timeout")
	fs.DurationVar(&cfg.ShutdownGrace, "shutdown-grace", 10*time.Second, "time allowed for in-flight requests to drain on SIGINT/SIGTERM")
	fs.Int64Var(&cfg.MaxBody, "max-body", tagserver.DefaultMaxBodyBytes, "maximum request body size in bytes (413 past this)")
	fs.StringVar(&cfg.ReplicaOf, "replica-of", "", "run as a standby replica of this primary URL (requires -wal-dir for the mirrored log)")
	fs.StringVar(&cfg.ReplListen, "repl-listen", "", "serve the /v1/repl/* API on this separate address (default: the main -addr)")
	fs.StringVar(&cfg.TermFile, "term-file", "", "file persisting the replication fencing term (default: <wal-dir>/TERM)")
	fs.StringVar(&cfg.Advertise, "advertise", "", "base URL peers are told to dial for this node (default: http://<listen addr>)")
	fs.StringVar(&cfg.DebugListen, "debug-listen", "", "serve pprof + /v1/metrics + /v1/debug/traces + /dashboard/ on this address (loopback only; empty disables)")
	fs.StringVar(&cfg.RingFile, "ring-file", "", "partition ring file (enables partition mode; flips are persisted here)")
	fs.StringVar(&cfg.PartitionID, "partition-id", "", "this node's partition ID in the ring (required with -ring-file)")
	fs.StringVar(&cfg.SplitRange, "split-range", "", "inclusive key range lo:hi this node owns during a split (filtered replica bootstrap, or restart of a promoted split target)")
	fs.DurationVar(&cfg.CoalesceWindow, "coalesce-window", 0, "debounce window folding a segment's keystroke observes into one engine call (0 folds only under backlog)")
	fs.IntVar(&cfg.AdmitQueue, "admit-queue", 4096, "interactive admission queue depth (arrivals past it are shed with 429)")
	fs.IntVar(&cfg.AdmitBulkQueue, "admit-bulk-queue", 256, "bulk (batch flush) admission queue depth")
	fs.IntVar(&cfg.AdmitWorkers, "admit-workers", 0, "admission worker concurrency (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.AdmitMaxDwell, "admit-max-dwell", 2*time.Second, "interactive head-of-line age past which arrivals are shed; the bulk lane sheds at a quarter of it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.Check(); err != nil {
		return err
	}

	// Listen before assembling the node so the default advertised address
	// can include the kernel-assigned port. Every return closes every
	// listener; Shutdown has closed the served ones already.
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	lns := []net.Listener{ln}
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	if cfg.Advertise == "" {
		cfg.Advertise = "http://" + ln.Addr().String()
	}
	n, err := node.Open(cfg)
	if err != nil {
		return err
	}
	servers := []*http.Server{{
		Handler:           n.Handler(),
		ReadTimeout:       cfg.ReadTimeout,
		ReadHeaderTimeout: cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       2 * cfg.ReadTimeout,
	}}
	// Side listeners: the replication API with -repl-listen (a durable
	// node's only), and the opt-in debug surface — pprof, metrics, traces
	// and the dashboard — ideally on loopback.
	for _, side := range []struct {
		name, addr string
		h          http.Handler
		idle       time.Duration
	}{
		{"repl", cfg.ReplListen, n.ReplHandler(), 2 * cfg.ReadTimeout},
		{"debug", cfg.DebugListen, n.DebugHandler(), 0},
	} {
		if side.addr == "" || side.h == nil {
			continue
		}
		l, err := net.Listen("tcp", side.addr)
		if err != nil {
			n.Close(context.Background()) //nolint:errcheck
			return fmt.Errorf("%s listen: %w", side.name, err)
		}
		lns = append(lns, l)
		servers = append(servers, &http.Server{Handler: side.h, ReadHeaderTimeout: cfg.ReadTimeout, IdleTimeout: side.idle})
		fmt.Printf("bftagd: %s API on %s\n", side.name, l.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second Ctrl-C during the drain kills the process
	stats := n.Stats()
	fmt.Printf("bftagd: serving on %s (%d segments, %d hashes)\n",
		ln.Addr(), stats.ParagraphSegments, stats.DistinctHashes)
	return serve(ctx, n, cfg.ShutdownGrace, servers, lns)
}

// serve runs each server on its listener until ctx ends or one of them
// fails, either way then closing the node, which shuts the servers down.
func serve(ctx context.Context, n *node.Node, grace time.Duration, servers []*http.Server, lns []net.Listener) error {
	errCh := make(chan error, len(servers))
	for i, srv := range servers {
		go func(srv *http.Server, ln net.Listener) { errCh <- srv.Serve(ln) }(srv, lns[i])
	}
	var err error
	select {
	case err = <-errCh:
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "bftagd: shutting down...")
	}
	shCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if cerr := n.Close(shCtx, servers...); err == nil {
		err = cerr
	}
	return err
}
