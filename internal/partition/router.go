package partition

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Device names the router on partition nodes' audit and idempotency
	// trails. Defaults to "router".
	Device string

	// FP is the fingerprint configuration shared with the cluster.
	FP fingerprint.Config

	// ClientOptions apply to every per-node client the router builds.
	ClientOptions []tagserver.ClientOption

	// ScatterTimeout bounds each partition's leg of a scatter-gather
	// query. A partition that cannot answer within the deadline fails the
	// whole request: a missing contribution could hide the authoritative
	// holder of a hash, and for a DLP system "could not check" must not
	// become "allowed". Defaults to 5s.
	ScatterTimeout time.Duration

	// MaxRingRefreshes bounds how many stale-ring redirects (421 with a
	// ring version) one request follows before giving up. Defaults to 2.
	MaxRingRefreshes int

	// Logf, when set, receives routing-tier events (ring flips, refreshes).
	Logf func(format string, args ...interface{})
}

// Router is the partition-aware routing tier. It holds a versioned ring,
// one failover-aware group client per partition, and a Lamport
// clock whose stamps impose the cross-partition first-observation order.
// Routers are stateless apart from the ring and the clock: any number can
// front the same cluster, and a restarted router re-learns both (the ring
// from any node, the clock by folding partition clocks — see Prime).
type Router struct {
	opts  RouterOptions
	clock atomic.Uint64

	mu      sync.Mutex
	ring    *Ring
	clients map[string]*groupClient // partition ID -> group client
}

// groupClient is one partition group's client and the comma-joined node
// list it was built from — the identity install compares to decide
// whether a ring change touched the group.
type groupClient struct {
	*tagserver.Client
	nodes string
}

// NewRouter builds a router over a validated ring.
func NewRouter(ring *Ring, opts RouterOptions) (*Router, error) {
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	if opts.Device == "" {
		opts.Device = "router"
	}
	if opts.ScatterTimeout <= 0 {
		opts.ScatterTimeout = 5 * time.Second
	}
	if opts.MaxRingRefreshes <= 0 {
		opts.MaxRingRefreshes = 2
	}
	rt := &Router{opts: opts}
	if err := rt.install(ring); err != nil {
		return nil, err
	}
	return rt, nil
}

func (rt *Router) logf(format string, args ...interface{}) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// install swaps in a new ring, building group clients for its partitions.
// Clients are reused across versions when a partition keeps its ID and
// node set, so long-lived routers keep their discovered-primary state
// through splits that do not touch the group.
func (rt *Router) install(ring *Ring) error {
	next := make(map[string]*groupClient, len(ring.Partitions))
	rt.mu.Lock()
	old := rt.clients
	rt.mu.Unlock()
	for i := range ring.Partitions {
		p := &ring.Partitions[i]
		// The client moves its primary on failover; the node list it was
		// built from is enough to decide reuse (discovery re-converges).
		nodes := strings.Join(p.Nodes, ",")
		if cc := old[p.ID]; cc != nil && cc.nodes == nodes {
			next[p.ID] = cc
			continue
		}
		c, err := tagserver.NewClient(nodes, rt.opts.Device, rt.opts.FP, rt.opts.ClientOptions...)
		if err != nil {
			return fmt.Errorf("partition %q: %w", p.ID, err)
		}
		next[p.ID] = &groupClient{Client: c, nodes: nodes}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Re-check monotonicity under the same lock as the swap: two racing
	// refreshes can both pass SetRing's version check, and the slower
	// (older) install must not clobber the newer ring.
	if rt.ring != nil && ring.Version <= rt.ring.Version {
		return nil
	}
	rt.ring = ring
	rt.clients = next
	return nil
}

// Ring returns the currently installed ring.
func (rt *Router) Ring() *Ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// SetRing installs a newer ring version; older or equal versions are
// ignored (refreshes race benignly).
func (rt *Router) SetRing(ring *Ring) error {
	if err := ring.Validate(); err != nil {
		return err
	}
	rt.mu.Lock()
	cur := rt.ring.Version
	rt.mu.Unlock()
	if ring.Version <= cur {
		return nil
	}
	rt.logf("partition: installing ring v%d (%d partitions)", ring.Version, len(ring.Partitions))
	return rt.install(ring)
}

// snapshot returns the ring and the group client for each of its
// partitions under one lock acquisition.
func (rt *Router) snapshot() (*Ring, map[string]*groupClient) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring, rt.clients
}

// tick mints the next Lamport stamp.
func (rt *Router) tick() uint64 { return rt.clock.Add(1) }

// fold raises the Lamport clock to at least c.
func (rt *Router) fold(c uint64) {
	for {
		cur := rt.clock.Load()
		if c <= cur || rt.clock.CompareAndSwap(cur, c) {
			return
		}
	}
}

// Clock returns the router's current Lamport time.
func (rt *Router) Clock() uint64 { return rt.clock.Load() }

// Prime folds every partition's logical clock into the router's, so a
// freshly (re)started router stamps ahead of the cluster instead of in
// its past — the invariant that keeps journal replay deterministic. Nodes
// that cannot be reached are skipped (their clock folds in on the first
// scatter that touches them).
func (rt *Router) Prime(ctx context.Context) {
	ring, clients := rt.snapshot()
	// Paragraph and document observations advance independent clocks;
	// folding only one could still stamp behind the cluster, so prime
	// from both.
	for _, gran := range []string{"paragraph", "document"} {
		replies, _ := rt.scatter(ctx, ring, clients, nil, gran)
		for _, r := range replies {
			rt.fold(r.Clock)
		}
	}
}

// refreshRing refetches the ring after a stale-ring 421, trying every
// partition group until one serves a newer version.
func (rt *Router) refreshRing(ctx context.Context) error {
	_, clients := rt.snapshot()
	var lastErr error
	for id, cc := range clients {
		encoded, _, err := cc.PartRing(ctx)
		if err != nil {
			lastErr = fmt.Errorf("partition %q: %w", id, err)
			continue
		}
		ring, err := DecodeRing(encoded)
		if err != nil {
			lastErr = fmt.Errorf("partition %q: %w", id, err)
			continue
		}
		if ring.Version > rt.Ring().Version {
			return rt.SetRing(ring)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("partition: no node served a newer ring")
	}
	return lastErr
}

// isRingRedirect reports whether err is a partition-ownership 421 (the
// node is healthy but the router's ring is stale).
func isRingRedirect(err error) bool {
	np, ok := tagserver.AsNotPrimary(err)
	return ok && np.RingVersion > 0
}

// routed runs op against the installed ring and re-runs it, from the
// start, under a refreshed ring each time a node answers with a stale-ring
// redirect — at most MaxRingRefreshes times.
func (rt *Router) routed(ctx context.Context, op func(ring *Ring, clients map[string]*groupClient) error) error {
	var lastErr error
	for refresh := 0; refresh <= rt.opts.MaxRingRefreshes; refresh++ {
		err := op(rt.snapshot())
		if err == nil || !isRingRedirect(err) {
			return err
		}
		lastErr = err
		if rerr := rt.refreshRing(ctx); rerr != nil {
			return fmt.Errorf("stale ring: %w (refresh failed: %v)", err, rerr)
		}
	}
	return fmt.Errorf("partition: ring refresh loop exhausted: %w", lastErr)
}

// homeFor resolves seg's home partition and its group client.
func homeFor(ring *Ring, clients map[string]*groupClient, seg segment.ID) (*Partition, *groupClient, error) {
	home, ok := ring.Home(seg)
	if !ok {
		return nil, nil, fmt.Errorf("partition: ring v%d does not cover key %d", ring.Version, segment.Key(seg))
	}
	cc := clients[home.ID]
	if cc == nil {
		return nil, nil, fmt.Errorf("partition: no client for partition %q", home.ID)
	}
	return home, cc, nil
}

// scatter queries every partition for its contribution to a disclosure
// resolve, each leg under its own deadline. The replies are indexed like
// ring.Partitions; a failed leg leaves its entry zero, which contributes
// nothing to a merge. The error names the first
// failed leg: callers that need completeness fail closed on it, since a
// missing contribution could hide the authoritative holder and flip a
// block to an allow.
func (rt *Router) scatter(ctx context.Context, ring *Ring, clients map[string]*groupClient, hashes []uint32, granularity string) ([]policy.PartResolve, error) {
	replies := make([]policy.PartResolve, len(ring.Partitions))
	errs := make([]error, len(ring.Partitions))
	var wg sync.WaitGroup
	for i := range ring.Partitions {
		p := &ring.Partitions[i]
		cc := clients[p.ID]
		if cc == nil {
			errs[i] = fmt.Errorf("partition %q: no client", p.ID)
			continue
		}
		wg.Add(1)
		go func(i int, id string, cc *groupClient) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(ctx, rt.opts.ScatterTimeout)
			defer cancel()
			var err error
			if replies[i], err = cc.PartQuery(legCtx, hashes, granularity); err != nil {
				errs[i] = fmt.Errorf("partition %q: %w", id, err)
			}
		}(i, p.ID, cc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return replies, fmt.Errorf("partition scatter: %w", err)
		}
	}
	return replies, nil
}

// ObserveHashes routes one observation: a scatter-gather resolve across
// every partition, the home included, in one parallel round, then the
// merged result applied at the segment's home — N + 1 legs in two
// sequential round trips. No partition's decision cache answers a routed
// observe: a change homed on another partition can outdate a decision
// without the home seeing it. A sole-partition ring resolves inside the
// node (one round trip). A stale ring is refreshed on 421 and the whole
// observation re-routed: when ownership moved between the phases, the
// merged resolve may predate the move.
func (rt *Router) ObserveHashes(ctx context.Context, service string, seg segment.ID, hashes []uint32, granularity string) (tagserver.Verdict, error) {
	hs := fingerprint.FromHashes(hashes).Hashes()
	var v tagserver.Verdict
	err := rt.routed(ctx, func(ring *Ring, clients map[string]*groupClient) error {
		_, cc, err := homeFor(ring, clients, seg)
		if err != nil {
			return err
		}
		stamp := rt.tick()
		var resolved *tagserver.PartResolved
		if len(ring.Partitions) > 1 {
			replies, err := rt.scatter(ctx, ring, clients, hs, granularity)
			if err != nil {
				return err
			}
			sources, tags, maxClock := policy.MergeResolves(len(hs), seg, replies)
			rt.fold(maxClock)
			resolved = &tagserver.PartResolved{Sources: sources, Tags: tags}
		}
		resp, err := cc.PartObserve(ctx, service, seg, hs, granularity, stamp, resolved)
		if err != nil {
			return err
		}
		v = *resp.Verdict
		return nil
	})
	if err != nil {
		return tagserver.Verdict{}, err
	}
	return v, nil
}

// CheckHashes routes a release check: scatter the disclosure query to
// every partition, merge, and evaluate the resolved check on one node
// (the first partition — enforcement state for ad-hoc checks is the
// service table, which every node carries).
func (rt *Router) CheckHashes(ctx context.Context, dest string, hashes []uint32) (tagserver.Verdict, error) {
	hs := fingerprint.FromHashes(hashes).Hashes()
	ring, clients := rt.snapshot()
	replies, err := rt.scatter(ctx, ring, clients, hs, "")
	if err != nil {
		return tagserver.Verdict{}, err
	}
	// No observer to exclude: ad-hoc content is not a tracked segment.
	sources, tags, maxClock := policy.MergeResolves(len(hs), "", replies)
	rt.fold(maxClock)

	// The check label's implicit set is the union of the winning sources'
	// explicit tags — exactly what checkSources computes from a shared
	// registry.
	implicit := unionTags(tags)
	cc := clients[ring.Partitions[0].ID]
	if cc == nil {
		return tagserver.Verdict{}, fmt.Errorf("partition: no client for %q", ring.Partitions[0].ID)
	}
	return cc.PartCheck(ctx, dest, sources, implicit)
}

// unionTags flattens a per-source tag map into a sorted distinct list.
func unionTags(tags map[segment.ID][]string) []string {
	if len(tags) == 0 {
		return nil
	}
	set := make(map[string]struct{})
	for _, names := range tags {
		for _, n := range names {
			set[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Suppress routes a declassification to the segment's home partition
// (labels and their audit trail live there), refreshing the ring on 421.
func (rt *Router) Suppress(ctx context.Context, user string, seg segment.ID, tag tdm.Tag, justification string) error {
	return rt.routed(ctx, func(ring *Ring, clients map[string]*groupClient) error {
		_, cc, err := homeFor(ring, clients, seg)
		if err != nil {
			return err
		}
		return cc.SuppressCtx(ctx, user, seg, tag, justification)
	})
}

// Upload routes a tracked-segment release check to the segment's home
// partition, where its label lives.
func (rt *Router) Upload(ctx context.Context, seg segment.ID, dest string) (tagserver.Verdict, error) {
	ring, clients := rt.snapshot()
	_, cc, err := homeFor(ring, clients, seg)
	if err != nil {
		return tagserver.Verdict{}, err
	}
	return cc.CheckUploadCtx(ctx, seg, dest)
}

// Label fetches a segment's label from its home partition.
func (rt *Router) Label(ctx context.Context, seg segment.ID) (tagserver.LabelResponse, error) {
	ring, clients := rt.snapshot()
	_, cc, err := homeFor(ring, clients, seg)
	if err != nil {
		return tagserver.LabelResponse{}, err
	}
	return cc.LabelCtx(ctx, seg)
}

// Stats sums database sizes across partitions. DistinctHashes is an upper
// bound: a hash held by segments on two partitions counts once per
// partition.
func (rt *Router) Stats(ctx context.Context) (tagserver.StatsResponse, error) {
	ring, clients := rt.snapshot()
	var (
		mu  sync.Mutex
		sum tagserver.StatsResponse
		wg  sync.WaitGroup
	)
	errs := make([]error, len(ring.Partitions))
	for i := range ring.Partitions {
		p := &ring.Partitions[i]
		cc := clients[p.ID]
		if cc == nil {
			errs[i] = fmt.Errorf("partition %q: no client", p.ID)
			continue
		}
		wg.Add(1)
		go func(i int, cc *groupClient) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(ctx, rt.opts.ScatterTimeout)
			defer cancel()
			s, err := cc.StatsCtx(legCtx)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			sum.Segments += s.Segments
			sum.DistinctHashes += s.DistinctHashes
			sum.AuditEntries += s.AuditEntries
			mu.Unlock()
		}(i, cc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tagserver.StatsResponse{}, err
		}
	}
	return sum, nil
}
