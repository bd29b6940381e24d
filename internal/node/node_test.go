package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
)

// writePolicy writes a policy file with the test services — wiki
// (privilege and confidentiality tw), pad and docs (unlabelled) — under
// the given enforcement mode, and returns its path.
func writePolicy(t testing.TB, mode string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.json")
	policy := `{"mode":"` + mode + `","tpar":0.3,"tdoc":0.3,"services":[` +
		`{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},{"name":"pad"},{"name":"docs"}]}`
	if err := os.WriteFile(path, []byte(policy), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// testCluster is a set of nodes on in-memory filesystems that reach each
// other, and are reached by the test, over one in-memory transport: no
// node listens on a socket.
type testCluster struct {
	t     testing.TB
	hosts *faultinject.Hosts
	net   *faultinject.Injector // rule-less unless a test adds rules
	http  *http.Client
}

func newCluster(t testing.TB) *testCluster {
	hosts := faultinject.NewHosts()
	inj := faultinject.New(hosts, 1)
	return &testCluster{t: t, hosts: hosts, net: inj, http: &http.Client{Transport: inj}}
}

// open assembles a node reachable as http://name, its store at /data on
// cfg.FS (default a fresh MemFS) with fsync=always unless cfg.Fsync says
// otherwise, under an advisory writePolicy unless cfg names a policy.
func (c *testCluster) open(name string, cfg Config) *Node {
	c.t.Helper()
	cfg.PolicyLint, cfg.WALDir, cfg.Advertise, cfg.Transport = true, "/data", "http://"+name, c.net
	if cfg.PolicyPath == "" {
		cfg.PolicyPath = writePolicy(c.t, "advisory")
	}
	if cfg.FS == nil {
		cfg.FS = faultinject.NewMemFS(1)
	}
	if cfg.Fsync == "" {
		cfg.Fsync = "always"
	}
	n, err := Open(cfg)
	if err != nil {
		c.t.Fatalf("open %s: %v", name, err)
	}
	c.t.Cleanup(func() {
		if err := n.Close(context.Background()); err != nil {
			c.t.Errorf("close %s: %v", name, err)
		}
	})
	c.hosts.Handle(name, n.Handler())
	return n
}

// do sends one request over the cluster's transport and returns the
// status and body.
func (c *testCluster) do(method, url, body string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// promote promotes the standby over /v1/repl/promote and fences the old
// primary with the new term, as `bfctl promote -old-primary` does.
func (c *testCluster) promote() {
	c.t.Helper()
	for _, step := range []struct{ url, body string }{
		{standbyURL + "/v1/repl/promote", ""},
		{primaryURL + "/v1/repl/fence", `{"term":1,"primary":"` + standbyURL + `"}`},
	} {
		if code, body := c.do(http.MethodPost, step.url, step.body); code != http.StatusOK {
			c.t.Fatalf("POST %s: status %d: %s", step.url, code, body)
		}
	}
}

// getHealth fetches and decodes a node's /healthz.
func (c *testCluster) getHealth(base string) tagserver.HealthResponse {
	c.t.Helper()
	code, body := c.do(http.MethodGet, base+"/healthz", "")
	if code != http.StatusOK {
		c.t.Fatalf("healthz status %d: %s", code, body)
	}
	var out tagserver.HealthResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		c.t.Fatal(err)
	}
	return out
}

// await polls cond until it holds, failing the test after ten seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// caughtUp reports whether a standby has applied everything its primary
// has journalled.
func caughtUp(primary, standby *Node) func() bool {
	return func() bool {
		st := standby.replica.Status()
		return st.LagRecords == 0 && st.Position == primary.durable.WAL().End().String()
	}
}

// TestTickers: ExpireEvery after opening, not before, the node drops the
// segments last observed more than Retain observations ago and keeps the
// recent ones; CompactEvery after, it merges the index heads into runs.
// The index merges a head inline once it holds a thirty-second of its run, so
// the paragraphs are enough for the last ones to leave postings in heads.
func TestTickers(t *testing.T) {
	const paragraphs = 400
	clk := clock.NewFake(time.Unix(1000, 0))
	n := newCluster(t).open("node", Config{ExpireEvery: time.Minute, Retain: 2, CompactEvery: time.Minute, Clock: clk})
	pars := n.mw.Tracker().Paragraphs()
	for i := 0; i < paragraphs; i++ {
		seg := segment.ID(fmt.Sprintf("wiki/gen#p%d", i))
		if _, err := n.mw.Engine().ObserveEdit(seg, "wiki", fmt.Sprintf("paragraph %d of the quarterly plan, with enough words to fingerprint", i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute - 1)
	if _, old := pars.Fingerprint("wiki/gen#p0"); !old || pars.Stats().HeadPostings == 0 {
		t.Fatalf("a segment expired or the heads merged before their cadence: %+v", pars.Stats())
	}
	clk.Advance(1)
	clk.WaitArmed(2) // both ran and wait for their next turn
	if _, old := pars.Fingerprint("wiki/gen#p0"); old || pars.Stats().HeadPostings != 0 {
		t.Errorf("after a minute: oldest segment kept %v, %d head postings", old, pars.Stats().HeadPostings)
	}
	if _, ok := pars.Fingerprint(segment.ID(fmt.Sprintf("wiki/gen#p%d", paragraphs-1))); !ok {
		t.Error("the newest segment expired")
	}
}
