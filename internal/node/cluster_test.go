package node

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
)

const (
	primaryURL = "http://primary"
	standbyURL = "http://standby"
)

// newGroup starts a primary and a standby as bftagd assembles them, on
// one in-memory transport. The standby has bootstrapped from the primary
// and keeps streaming.
func newGroup(t *testing.T) (c *testCluster, primary, standby *Node) {
	c = newCluster(t)
	primary = c.open("primary", Config{})
	standby = c.open("standby", Config{ReplicaOf: primaryURL})
	await(t, "the standby's bootstrap", func() bool { return standby.replica.Status().Bootstraps > 0 })
	return c, primary, standby
}

// client is a device client over nodes on the cluster's transport.
func (c *testCluster) client(nodes string) *tagserver.Client {
	c.t.Helper()
	client, err := tagserver.NewClient(nodes, "dev", fingerprint.DefaultConfig(), tagserver.WithTransport(c.net))
	if err != nil {
		c.t.Fatal(err)
	}
	return client
}

// TestClusterClientIgnoresStaleReplica is the regression test for the
// replica-read fail-open: a replica that bootstrapped and then stopped
// streaming (a lagging link) has not seen an observe the primary acked,
// so a release check answered there says allow where the primary warns.
// Every answer a Client built over the group gives must be the
// primary's, byte for byte.
func TestClusterClientIgnoresStaleReplica(t *testing.T) {
	c, _, standby := newGroup(t)
	standby.replica.Stop() // the link lags from here on

	const (
		seg  = "wiki/launch#p0"
		text = "the secret launch plan for the atlas project"
	)
	primary := c.client(primaryURL)
	if _, err := primary.Observe("wiki", seg, text); err != nil {
		t.Fatal(err)
	}
	group := c.client(primaryURL + "," + standbyURL)

	// answer renders a call's outcome for comparison: the JSON of the
	// value, or the error text.
	answer := func(v interface{}, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	const warnTW = `{"decision":"warn","violating":["tw"]` // what the primary must say, or the test has no teeth
	for _, q := range []struct{ name, got, want, wantPrefix string }{
		{"check", answer(group.Check(text, "pad")), answer(primary.Check(text, "pad")), warnTW},
		{"upload", answer(group.CheckUpload(seg, "pad")), answer(primary.CheckUpload(seg, "pad")), warnTW},
		{"label", answer(group.Label(seg)), answer(primary.Label(seg)), `{"explicit":["tw"]`},
	} {
		if q.got != q.want {
			t.Errorf("%s through the group client = %s, primary says %s", q.name, q.got, q.want)
		}
		if !strings.HasPrefix(q.want, q.wantPrefix) {
			t.Errorf("%s on the primary = %s, want %s…", q.name, q.want, q.wantPrefix)
		}
	}
}

// TestFailoverEngineFollowsPromotion: a device engine over a group's
// node list rides out a failover without one degraded verdict. Once the
// standby is promoted and the old primary fenced, the old primary's 421
// leads the client to the new one, which answers with the observation
// acked before the promotion.
func TestFailoverEngineFollowsPromotion(t *testing.T) {
	c, primary, standby := newGroup(t)
	client := c.client(primaryURL + "," + standbyURL)
	f, err := tagserver.NewFailoverEngine(tagserver.FailoverConfig{Client: client, Mode: policy.ModeEnforcing})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const text = "the secret launch plan for the atlas project"
	expect := func(when string, v policy.Verdict, err error, want policy.Decision) {
		t.Helper()
		if err != nil || v.Degraded || v.Decision != want {
			t.Fatalf("%s: verdict %+v, err %v; want a non-degraded %v", when, v, err, want)
		}
	}

	v, err := f.ObserveEdit("wiki/launch#p0", "wiki", text)
	expect("observe before the failover", v, err, policy.DecisionAllow)
	await(t, "the standby to catch up", caughtUp(primary, standby))

	c.promote()

	v, err = f.CheckText(text, "pad")
	expect("check after the failover", v, err, policy.DecisionWarn)
	v, err = f.ObserveEdit("wiki/after#p0", "wiki", "a paragraph written after the failover")
	expect("observe after the failover", v, err, policy.DecisionAllow)
	if got := client.Primary(); got != standbyURL {
		t.Errorf("client primary = %s, want the promoted standby %s", got, standbyURL)
	}
	if st := f.Stats(); st.Degraded != 0 {
		t.Errorf("failover stats %+v, want no degraded decision", st)
	}
}

// TestPromotionUnderRouterWithoutSockets runs a partition group — a
// primary and its standby, each a Node on MemFS — behind a routing tier,
// with every message on the in-memory transport inside a rule-less
// injector: no socket is opened. Writes go through the router before and
// after the standby is promoted over /v1/repl/promote and the old primary
// fenced, as `bfctl promote -old-primary` does. Every acked write must be
// on the new primary, and a release check through the router must still
// see the pre-promotion writes.
func TestPromotionUnderRouterWithoutSockets(t *testing.T) {
	c := newCluster(t)
	ring := partition.SingleRing("p0", primaryURL, standbyURL)
	primary := c.open("primary", Config{RingFile: writeRing(t, ring), PartitionID: "p0"})
	standby := c.open("standby", Config{ReplicaOf: primaryURL, RingFile: writeRing(t, ring), PartitionID: "p0"})
	await(t, "the standby's bootstrap", func() bool { return standby.replica.Status().Bootstraps > 0 })
	router, err := partition.NewRouter(ring, partition.RouterOptions{
		FP:            fingerprint.DefaultConfig(),
		ClientOptions: []tagserver.ClientOption{tagserver.WithTransport(c.net)},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	hashes := func(i int) []uint32 {
		return []uint32{uint32(10*i + 1), uint32(10*i + 2), uint32(10*i + 3), uint32(10*i + 4)}
	}
	var acked []segment.ID
	write := func(i int) {
		t.Helper()
		seg := segment.ID(fmt.Sprintf("wiki/doc%d#p0", i))
		if _, err := router.ObserveHashes(ctx, "wiki", seg, hashes(i), ""); err != nil {
			t.Fatalf("write %d through the router: %v", i, err)
		}
		acked = append(acked, seg)
	}
	for i := 0; i < 20; i++ {
		if i == 10 {
			await(t, "the standby to catch up", caughtUp(primary, standby))
			c.promote()
		}
		write(i)
	}

	for i, seg := range acked {
		if _, ok := standby.mw.Tracker().Paragraphs().Fingerprint(seg); !ok {
			t.Errorf("acked write %s is not on the new primary", seg)
		}
		if _, ok := primary.mw.Tracker().Paragraphs().Fingerprint(seg); ok != (i < 10) {
			t.Errorf("%s on the fenced primary: %v, want %v", seg, ok, i < 10)
		}
	}
	if h := c.getHealth(standbyURL); h.Replication == nil || h.Replication.Role != "primary" || h.Replication.Term != 1 {
		t.Errorf("promoted standby's replication block %+v, want primary at term 1", h.Replication)
	}
	v, err := router.CheckHashes(ctx, "pad", hashes(3))
	if err != nil || v.Decision != "warn" || len(v.Violating) != 1 || v.Violating[0] != "tw" {
		t.Errorf("check of a pre-promotion write through the router: %+v, %v; want warn [tw]", v, err)
	}
}
