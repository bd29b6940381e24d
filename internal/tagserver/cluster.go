package tagserver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// ClusterClient talks to a replicated tag service under one routing
// rule: every request — observe, suppress, check, upload, label, stats,
// ring — goes to the current primary, follows 421 redirects when the
// cluster has failed over, and rediscovers the primary over /healthz
// when it is unreachable (onPrimary). Replicas are standbys: they are
// never asked a question, only probed as promotion candidates, because
// a release check answered by a lagging replica can miss an observation
// the primary already acked and turn a block into an allow (§4.3's
// Algorithm 1 is sound only over every observation acked so far). The
// client tracks the highest replication term it has seen and stamps it
// on every POST, so a deposed primary that answers a write is fenced on
// contact rather than accepting it.
type ClusterClient struct {
	device string
	cfg    fingerprint.Config
	opts   []ClientOption

	mu        sync.Mutex
	primary   string
	replicas  []string
	bootstrap []string
	clients   map[string]*Client
	term      uint64

	// maxRedirects bounds how many 421 redirects one request follows.
	maxRedirects int
}

// NewClusterClient builds a client over a primary and any number of
// standby replicas (failover candidates only). opts apply to every
// per-node Client it constructs.
func NewClusterClient(primary string, replicas []string, device string, cfg fingerprint.Config, opts ...ClientOption) (*ClusterClient, error) {
	if primary == "" {
		return nil, fmt.Errorf("tagserver: cluster primary URL is required")
	}
	cc := &ClusterClient{
		device:       device,
		cfg:          cfg,
		opts:         opts,
		primary:      primary,
		replicas:     append([]string(nil), replicas...),
		bootstrap:    append([]string{primary}, replicas...),
		clients:      make(map[string]*Client),
		maxRedirects: 3,
	}
	// Validate eagerly: constructing the primary client surfaces bad
	// config now rather than on the first call.
	if _, err := cc.clientFor(primary); err != nil {
		return nil, err
	}
	return cc, nil
}

// Bootstrap returns the comma-joined node list the client was built
// over (primary first) — the identity a routing tier compares to decide
// whether a ring change touched this group.
func (cc *ClusterClient) Bootstrap() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.bootstrap) == 0 {
		return ""
	}
	return strings.Join(cc.bootstrap, ",")
}

// Term returns the highest replication term this client has observed.
func (cc *ClusterClient) Term() uint64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.term
}

// Primary returns the address requests are currently sent to.
func (cc *ClusterClient) Primary() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.primary
}

// observe folds a 421's term and primary into the client's routing state.
func (cc *ClusterClient) observe(np *NotPrimaryError) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if np.Term > cc.term {
		cc.term = np.Term
	}
	if np.Primary != "" && np.Primary != cc.primary {
		cc.primary = np.Primary
	}
}

// clientFor returns (building if needed) the per-node client for base.
func (cc *ClusterClient) clientFor(base string) (*Client, error) {
	cc.mu.Lock()
	if c, ok := cc.clients[base]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()

	opts := append(append([]ClientOption(nil), cc.opts...), WithTermSource(cc.Term))
	c, err := NewClient(base, cc.device, cc.cfg, opts...)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if existing, ok := cc.clients[base]; ok {
		return existing, nil
	}
	cc.clients[base] = c
	return c, nil
}

// discoverPrimary probes every known node's /healthz for one that
// reports the primary role, adopting it for future requests.
func (cc *ClusterClient) discoverPrimary(ctx context.Context) bool {
	cc.mu.Lock()
	candidates := append([]string{cc.primary}, cc.replicas...)
	cc.mu.Unlock()
	for _, base := range candidates {
		c, err := cc.clientFor(base)
		if err != nil {
			continue
		}
		health, err := c.HealthStatus(ctx)
		if err != nil || health.Replication == nil {
			continue
		}
		cc.mu.Lock()
		if health.Replication.Term > cc.term {
			cc.term = health.Replication.Term
		}
		cc.mu.Unlock()
		if health.Replication.Role == "primary" {
			cc.mu.Lock()
			cc.primary = base
			cc.mu.Unlock()
			return true
		}
		if p := health.Replication.Primary; p != "" {
			cc.mu.Lock()
			cc.primary = p
			cc.mu.Unlock()
			return true
		}
	}
	return false
}

// onPrimary is the one place a node is picked: it runs fn against the
// current primary, following up to maxRedirects 421 redirects (learning
// the new primary from the error or, when it is not advertised, from the
// replicas' health endpoints). The hop cap bounds the redirect chase
// even when a mid-promotion cluster ping-pongs (a fenced ex-primary
// advertising the candidate, the candidate still advertising the
// ex-primary): a redirect back to a node already tried this request
// stops following addresses and falls back to health discovery. A 421
// carrying a Retry-After hint (a promotion in flight) is honoured like a
// 429's backoff before the next hop; a 421 carrying a ring version is a
// partition-ownership redirect and is returned to the caller — only the
// routing tier can fix a stale ring.
func (cc *ClusterClient) onPrimary(ctx context.Context, fn func(*Client) error) error {
	var lastErr error
	visited := make(map[string]bool, cc.maxRedirects+1)
	for attempt := 0; attempt <= cc.maxRedirects; attempt++ {
		base := cc.Primary()
		c, err := cc.clientFor(base)
		if err != nil {
			return err
		}
		visited[base] = true
		err = fn(c)
		if err == nil {
			return nil
		}
		lastErr = err
		np, ok := AsNotPrimary(err)
		if !ok {
			if IsUnavailable(err) && cc.discoverPrimary(ctx) {
				continue
			}
			return err
		}
		if np.RingVersion > 0 {
			return err
		}
		cc.observe(np)
		if np.RetryAfter > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(np.RetryAfter):
			}
		}
		if np.Primary == "" || visited[cc.Primary()] {
			if !cc.discoverPrimary(ctx) {
				return err
			}
		}
	}
	return lastErr
}

// Observe records one paragraph edit on the primary.
func (cc *ClusterClient) Observe(ctx context.Context, service string, seg segment.ID, text string) (Verdict, error) {
	var out Verdict
	err := cc.onPrimary(ctx, func(c *Client) error {
		v, err := c.ObserveCtx(ctx, service, seg, text)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// PartObserve sends a routed observation to the partition's primary,
// following replication failovers. A partition-ownership 421 (ring
// version set) is returned to the caller for a ring refresh.
func (cc *ClusterClient) PartObserve(ctx context.Context, service string, seg segment.ID, hashes []uint32, granularity string, clock uint64, resolved *PartResolved) (PartObserveResponse, error) {
	var out PartObserveResponse
	err := cc.onPrimary(ctx, func(c *Client) error {
		r, err := c.PartObserve(ctx, service, seg, hashes, granularity, clock, resolved)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}

// PartQuery fetches the partition's scatter contribution from its
// primary.
func (cc *ClusterClient) PartQuery(ctx context.Context, hashes []uint32, granularity string) (PartResolveWire, error) {
	var out PartResolveWire
	err := cc.onPrimary(ctx, func(c *Client) error {
		r, err := c.PartQuery(ctx, hashes, granularity)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}

// PartCheck evaluates a resolved release check on the partition's
// primary.
func (cc *ClusterClient) PartCheck(ctx context.Context, dest string, sources []PartSource, implicit []string) (Verdict, error) {
	var out Verdict
	err := cc.onPrimary(ctx, func(c *Client) error {
		v, err := c.PartCheck(ctx, dest, sources, implicit)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// PartRing fetches the encoded ring from the partition's primary.
func (cc *ClusterClient) PartRing(ctx context.Context) (encoded []byte, version uint64, err error) {
	rerr := cc.onPrimary(ctx, func(c *Client) error {
		b, v, err := c.PartRing(ctx)
		if err == nil {
			encoded, version = b, v
		}
		return err
	})
	return encoded, version, rerr
}

// PartSuppress declassifies a tag via the partition's primary,
// surfacing ownership 421s to the caller like PartObserve.
func (cc *ClusterClient) PartSuppress(ctx context.Context, user string, seg segment.ID, tag tdm.Tag, justification string) error {
	return cc.onPrimary(ctx, func(c *Client) error {
		return c.SuppressCtx(ctx, user, seg, tag, justification)
	})
}

// Upload evaluates a tracked segment's release against its stored label
// on the primary.
func (cc *ClusterClient) Upload(ctx context.Context, seg segment.ID, dest string) (Verdict, error) {
	var out Verdict
	err := cc.onPrimary(ctx, func(c *Client) error {
		v, err := c.CheckUploadCtx(ctx, seg, dest)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// Check evaluates ad-hoc text against a destination on the primary.
func (cc *ClusterClient) Check(ctx context.Context, text, dest string) (Verdict, error) {
	var out Verdict
	err := cc.onPrimary(ctx, func(c *Client) error {
		v, err := c.CheckCtx(ctx, text, dest)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// Label fetches a segment's label from the primary.
func (cc *ClusterClient) Label(ctx context.Context, seg segment.ID) (LabelResponse, error) {
	var out LabelResponse
	err := cc.onPrimary(ctx, func(c *Client) error {
		l, err := c.LabelCtx(ctx, seg)
		if err == nil {
			out = l
		}
		return err
	})
	return out, err
}

// Stats fetches database sizes from the primary.
func (cc *ClusterClient) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := cc.onPrimary(ctx, func(c *Client) error {
		s, err := c.StatsCtx(ctx)
		if err == nil {
			out = s
		}
		return err
	})
	return out, err
}
