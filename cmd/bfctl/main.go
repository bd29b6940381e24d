// Command bfctl manages a BrowserFlow state file: services, observations,
// release checks, tag suppression and the audit trail.
//
// Usage:
//
//	bfctl -state s.bf init
//	bfctl -state s.bf add-service -name wiki -lp tw -lc tw
//	bfctl -state s.bf observe -service wiki -seg wiki/guide#p0 -text "..."
//	bfctl -state s.bf check -dest docs -text "..."
//	bfctl -state s.bf suppress -user alice -seg wiki/guide#p0 -tag tw -why "approved"
//	bfctl -state s.bf label -seg wiki/guide#p0
//	bfctl -state s.bf stats
//	bfctl -state s.bf audit
//	bfctl policy lint policy.json shadow-policy.json
//
// With -server, observe, check, suppress, label and stats run against a
// shared tag service instead. -server takes one URL or a replication
// group's comma-separated node list, primary first; requests follow the
// group's primary across a failover without re-pointing:
//
//	bfctl -server http://primary:7000,http://replica:7001 -dest docs -text "..." check
//
// Against a replicated tag service, bfctl is also the failover operator:
//
//	bfctl -server http://replica:7001 repl-status
//	bfctl -server http://replica:7001 -old-primary http://primary:7000 promote
//
// promote refuses while the replica still lags its primary (override
// with -force) and, with -old-primary, fences the deposed primary so it
// rejects writes immediately.
//
// Pass -passphrase to keep the state encrypted at rest.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bfctl", flag.ContinueOnError)
	var (
		statePath  = fs.String("state", "browserflow.state", "state file path")
		passphrase = fs.String("passphrase", "", "encrypt/decrypt state at rest")
		mode       = fs.String("mode", "advisory", "enforcement mode: advisory, enforcing, encrypting")
		policyPath = fs.String("policy", "", "policy JSON file (init): registers its services")
		serverURL  = fs.String("server", "", "shared tag service URL, or a replication group's comma-separated node list (primary first); observe/check/suppress/label/stats run remotely")
		device     = fs.String("device", "bfctl", "device name reported to the tag service")
		oldPrimary = fs.String("old-primary", "", "deposed primary to fence after promote")
		force      = fs.Bool("force", false, "promote even when the replica lags its primary")
		walDir     = fs.String("wal-dir", "", "durable directory to verify offline (fsck)")

		name = fs.String("name", "", "service name (add-service)")
		lp   = fs.String("lp", "", "comma-separated privilege tags (add-service)")
		lc   = fs.String("lc", "", "comma-separated confidentiality tags (add-service)")

		srcPartition = fs.String("src-partition", "", "partition being split (split)")
		splitAt      = fs.Uint64("split-at", 0, "last partition key the source keeps (split)")
		newPartition = fs.String("new-partition", "", "partition ID for the moved range (split)")
		target       = fs.String("target", "", "split-target replica URL to promote (split)")
		targetNodes  = fs.String("target-nodes", "", "comma-separated node URLs of the new partition group (split; default: -target)")

		service = fs.String("service", "", "origin service (observe)")
		seg     = fs.String("seg", "", "segment ID")
		text    = fs.String("text", "", "text ('-' reads stdin)")
		dest    = fs.String("dest", "", "destination service (check)")
		user    = fs.String("user", "", "acting user")
		tag     = fs.String("tag", "", "tag (suppress/allocate/grant)")
		why     = fs.String("why", "", "justification (suppress)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errors.New("command required: init, add-service, observe, check, sources, attribute, suppress, allocate, grant, label, stats, audit, promote, repl-status, split, ring, metrics, trace, fsck, scrub-status, policy")
	}
	cmd := fs.Arg(0)

	// Replication operator commands talk to /v1/repl/* directly.
	if handled, err := dispatchRepl(cmd, *serverURL, *oldPrimary, *force, stdout); handled {
		return err
	}

	// Partition operator commands: `split` reshards a partition live,
	// `ring` prints the whole-cluster topology.
	if *splitAt > math.MaxUint32 {
		return fmt.Errorf("-split-at %d exceeds the 32-bit keyspace", *splitAt)
	}
	var tnodes []string
	if *targetNodes != "" {
		tnodes = strings.Split(*targetNodes, ",")
	}
	if handled, err := dispatchPart(cmd, splitArgs{
		server: *serverURL, srcID: *srcPartition, at: uint32(*splitAt),
		newID: *newPartition, target: *target, targetNodes: tnodes, force: *force,
	}, stdout); handled {
		return err
	}

	// Observability operator commands: `metrics` dumps /v1/metrics,
	// `trace <id>` prints one trace's spans from /v1/debug/traces.
	if handled, err := dispatchObs(cmd, *serverURL, fs.Arg(1), stdout); handled {
		return err
	}

	// Policy-file operator commands: `policy lint <files...>` runs the
	// static analyzer bftagd applies at startup.
	if handled, err := dispatchPolicy(cmd, fs.Args()[1:], stdout); handled {
		return err
	}

	// Self-healing storage operator commands: `fsck` verifies a durable
	// directory offline, `scrub-status` shows a node's scrub state.
	var fsckKey []byte
	if *passphrase != "" {
		fsckKey = store.DeriveKey(*passphrase)
	}
	if handled, err := dispatchStorage(cmd, *walDir, fsckKey, *serverURL, stdout); handled {
		return err
	}

	policyMode, err := parseMode(*mode)
	if err != nil {
		return err
	}
	body := *text
	if body == "-" {
		raw, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		body = string(raw)
	}

	if *serverURL != "" {
		return runRemote(remoteArgs{
			cmd: cmd, server: *serverURL, device: *device,
			service: *service, seg: *seg, body: body, dest: *dest,
			user: *user, tag: *tag, why: *why,
		}, stdout)
	}

	var mw *browserflow.Middleware
	if cmd == "init" && *policyPath != "" {
		if mw, err = browserflow.NewFromPolicyFile(*policyPath); err != nil {
			return err
		}
	} else {
		cfg := browserflow.DefaultConfig()
		cfg.Mode = policyMode
		if mw, err = browserflow.New(cfg); err != nil {
			return err
		}
	}
	if cmd != "init" {
		if err := mw.Load(*statePath, *passphrase); err != nil {
			return fmt.Errorf("load state (run init first?): %w", err)
		}
	}

	save := true
	switch cmd {
	case "init":
		// Fresh state; nothing else to do.

	case "add-service":
		if *name == "" {
			return errors.New("add-service requires -name")
		}
		err = mw.RegisterService(browserflow.Service{
			Name:            *name,
			Privilege:       splitTags(*lp),
			Confidentiality: splitTags(*lc),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "service %s registered (Lp=%s Lc=%s)\n", *name, *lp, *lc)

	case "observe":
		if *service == "" || *seg == "" || body == "" {
			return errors.New("observe requires -service, -seg and -text")
		}
		verdict, err := mw.ObserveParagraph(*service, browserflow.SegmentID(*seg), body)
		if err != nil {
			return err
		}
		printVerdict(stdout, verdict)

	case "check":
		if *dest == "" || body == "" {
			return errors.New("check requires -dest and -text")
		}
		verdict, err := mw.CheckText(body, *dest)
		if err != nil {
			return err
		}
		printVerdict(stdout, verdict)
		save = false

	case "suppress":
		if *user == "" || *seg == "" || *tag == "" {
			return errors.New("suppress requires -user, -seg and -tag")
		}
		if err := mw.Suppress(*user, browserflow.SegmentID(*seg), browserflow.Tag(*tag), *why); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tag %s suppressed on %s by %s\n", *tag, *seg, *user)

	case "allocate":
		if *user == "" || *tag == "" {
			return errors.New("allocate requires -user and -tag")
		}
		if err := mw.AllocateTag(*user, browserflow.Tag(*tag)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tag %s allocated to %s\n", *tag, *user)

	case "grant":
		if *user == "" || *tag == "" || *service == "" {
			return errors.New("grant requires -user, -tag and -service")
		}
		if err := mw.GrantTag(*user, *service, browserflow.Tag(*tag)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tag %s granted to %s\n", *tag, *service)

	case "sources":
		if body == "" {
			return errors.New("sources requires -text")
		}
		sources, err := mw.Sources(body)
		if err != nil {
			return err
		}
		if len(sources) == 0 {
			fmt.Fprintln(stdout, "no sources: text discloses nothing tracked")
		}
		for _, src := range sources {
			fmt.Fprintf(stdout, "discloses %.0f%% of %s (threshold %.2f)\n", src.Disclosure*100, src.Seg, src.Threshold)
		}
		save = false

	case "attribute":
		if *seg == "" || body == "" {
			return errors.New("attribute requires -seg and -text")
		}
		spans, err := mw.Attribute(body, browserflow.SegmentID(*seg))
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			fmt.Fprintln(stdout, "no passages attributed")
		}
		for _, s := range spans {
			fmt.Fprintf(stdout, "[%d:%d] %q\n", s.Start, s.End, body[s.Start:s.End])
		}
		save = false

	case "label":
		if *seg == "" {
			return errors.New("label requires -seg")
		}
		label := mw.Label(browserflow.SegmentID(*seg))
		if label == nil {
			fmt.Fprintf(stdout, "segment %s untracked\n", *seg)
		} else {
			fmt.Fprintf(stdout, "%s: %s\n", *seg, label)
		}
		save = false

	case "services":
		for _, svc := range mw.Registry().Services() {
			fmt.Fprintf(stdout, "%-12s Lp=%s Lc=%s\n", svc.Name, svc.Privilege, svc.Confidentiality)
		}
		save = false

	case "stats":
		s := mw.Stats()
		fmt.Fprintf(stdout, "paragraph segments: %d\ndocument segments:  %d\ndistinct hashes:    %d\naudit entries:      %d\n",
			s.ParagraphSegments, s.DocumentSegments, s.DistinctHashes, s.AuditEntries)
		save = false

	case "audit":
		for _, e := range mw.AuditEntries() {
			fmt.Fprintf(stdout, "%4d %s %-9s user=%s tag=%s seg=%s svc=%s %q\n",
				e.Seq, e.Time.Format("2006-01-02T15:04:05"), e.Action, e.User, e.Tag, e.Segment, e.Service, e.Justification)
		}
		save = false

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}

	if save {
		if err := mw.Save(*statePath, *passphrase); err != nil {
			return fmt.Errorf("save state: %w", err)
		}
	}
	return nil
}

// remoteArgs carries the flags a remote invocation needs.
type remoteArgs struct {
	cmd, server, device            string
	service, body, dest, user, why string
	seg, tag                       string
}

// runRemote executes the command against a shared tag service.
func runRemote(a remoteArgs, stdout io.Writer) error {
	client, err := tagserver.NewClient(a.server, a.device, fingerprint.DefaultConfig())
	if err != nil {
		return err
	}
	switch a.cmd {
	case "observe":
		if a.service == "" || a.seg == "" || a.body == "" {
			return errors.New("observe requires -service, -seg and -text")
		}
		v, err := client.Observe(a.service, browserflow.SegmentID(a.seg), a.body)
		if err != nil {
			return err
		}
		printRemoteVerdict(stdout, v)

	case "check":
		if a.dest == "" || a.body == "" {
			return errors.New("check requires -dest and -text")
		}
		v, err := client.Check(a.body, a.dest)
		if err != nil {
			return err
		}
		printRemoteVerdict(stdout, v)

	case "suppress":
		if a.user == "" || a.seg == "" || a.tag == "" {
			return errors.New("suppress requires -user, -seg and -tag")
		}
		if err := client.Suppress(a.user, browserflow.SegmentID(a.seg), browserflow.Tag(a.tag), a.why); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tag %s suppressed on %s by %s (remote)\n", a.tag, a.seg, a.user)

	case "label":
		if a.seg == "" {
			return errors.New("label requires -seg")
		}
		label, err := client.Label(browserflow.SegmentID(a.seg))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: explicit=%v implicit=%v suppressed=%v\n",
			a.seg, label.Explicit, label.Implicit, label.Suppressed)

	case "stats":
		stats, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "segments: %d\ndistinct hashes: %d\naudit entries: %d\n",
			stats.Segments, stats.DistinctHashes, stats.AuditEntries)

	default:
		return fmt.Errorf("command %q not available in -server mode (use: observe, check, suppress, label, stats)", a.cmd)
	}
	return nil
}

func printRemoteVerdict(w io.Writer, v tagserver.Verdict) {
	fmt.Fprintf(w, "decision: %s\n", v.Decision)
	if len(v.Violating) > 0 {
		fmt.Fprintf(w, "violating tags: %v\n", v.Violating)
	}
	for _, src := range v.Sources {
		fmt.Fprintf(w, "discloses %.0f%% of %s\n", src.Disclosure*100, src.Seg)
	}
}

func parseMode(s string) (browserflow.Mode, error) {
	switch s {
	case "advisory":
		return browserflow.ModeAdvisory, nil
	case "enforcing":
		return browserflow.ModeEnforcing, nil
	case "encrypting":
		return browserflow.ModeEncrypting, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func splitTags(s string) []browserflow.Tag {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]browserflow.Tag, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, browserflow.Tag(p))
		}
	}
	return out
}

func printVerdict(w io.Writer, v browserflow.Verdict) {
	fmt.Fprintf(w, "decision: %s\n", v.Decision)
	if len(v.Violating) > 0 {
		fmt.Fprintf(w, "violating tags: %v\n", v.Violating)
	}
	for _, src := range v.Sources {
		fmt.Fprintf(w, "discloses %.0f%% of %s (threshold %.2f)\n", src.Disclosure*100, src.Seg, src.Threshold)
	}
}
