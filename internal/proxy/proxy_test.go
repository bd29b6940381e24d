package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/dlpmon"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/webapp"
)

const proxySecret = "Internal pricing strategy for the enterprise tier doubles the per-seat cost after the first hundred users."

// upstream records requests it receives.
type upstream struct {
	srv  *httptest.Server
	got  []string
	path string
}

func newUpstream(t *testing.T) *upstream {
	t.Helper()
	u := &upstream{}
	u.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		u.got = append(u.got, string(body))
		u.path = r.URL.Path
		w.Header().Set("X-Upstream", "yes")
		w.WriteHeader(200)
		io.WriteString(w, "upstream ok")
	}))
	t.Cleanup(u.srv.Close)
	return u
}

func newMonitor(t *testing.T) *dlpmon.Monitor {
	t.Helper()
	m, err := dlpmon.New(dlpmon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSensitive("pricing", proxySecret); err != nil {
		t.Fatal(err)
	}
	return m
}

func newEngine(t *testing.T) *policy.Engine {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.DefaultConfig(),
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ObserveEdit("wiki/pricing#p0", "wiki", proxySecret); err != nil {
		t.Fatal(err)
	}
	return engine
}

func mustURL(t *testing.T, s string) *url.URL {
	t.Helper()
	u, err := url.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing upstream accepted")
	}
	if _, err := New(Config{Upstream: &url.URL{}, Engine: newEngine(t)}); err == nil {
		t.Error("engine without ServiceOf accepted")
	}
}

func TestForwardsCleanRequests(t *testing.T) {
	up := newUpstream(t)
	p, err := New(Config{Upstream: mustURL(t, up.srv.URL), Monitor: newMonitor(t)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.PostForm(front.URL+"/docs/x", url.Values{"content": {"a clean sentence"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Upstream") != "yes" {
		t.Errorf("status=%d header=%q", resp.StatusCode, resp.Header.Get("X-Upstream"))
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "upstream ok" {
		t.Errorf("body=%q", body)
	}
	if up.path != "/docs/x" {
		t.Errorf("upstream path=%q", up.path)
	}
	if s := p.Stats(); s.Forwarded != 1 || s.Blocked != 0 {
		t.Errorf("stats=%+v", s)
	}
}

func TestBlocksCorpusMatch(t *testing.T) {
	up := newUpstream(t)
	p, err := New(Config{Upstream: mustURL(t, up.srv.URL), Monitor: newMonitor(t)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.PostForm(front.URL+"/anywhere", url.Values{"content": {proxySecret}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status=%d, want 403", resp.StatusCode)
	}
	if len(up.got) != 0 {
		t.Error("blocked body reached upstream")
	}
	if s := p.Stats(); s.Blocked != 1 {
		t.Errorf("stats=%+v", s)
	}
}

func TestBlocksPolicyViolation(t *testing.T) {
	up := newUpstream(t)
	p, err := New(Config{
		Upstream: mustURL(t, up.srv.URL),
		Engine:   newEngine(t),
		ServiceOf: func(u *url.URL) (string, bool) {
			return webapp.ServiceForPath(u.Path)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	// Posting the wiki text to docs violates the TDM.
	resp, err := http.PostForm(front.URL+"/docs/report", url.Values{"content": {proxySecret}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status=%d, want 403", resp.StatusCode)
	}
	// The same text back to the wiki is fine.
	resp2, err := http.PostForm(front.URL+"/wiki/page", url.Values{"content": {proxySecret}})
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("wiki post status=%d, want 200", resp2.StatusCode)
	}
	// Unmapped destinations skip the policy check.
	resp3, err := http.PostForm(front.URL+"/other/endpoint", url.Values{"content": {proxySecret}})
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("unmapped post status=%d, want 200", resp3.StatusCode)
	}
}

func TestGetRequestsPassThrough(t *testing.T) {
	up := newUpstream(t)
	p, err := New(Config{Upstream: mustURL(t, up.srv.URL), Monitor: newMonitor(t)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()
	resp, err := http.Get(front.URL + "/wiki/page?q=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status=%d", resp.StatusCode)
	}
}

func TestUpstreamFailure(t *testing.T) {
	p, err := New(Config{Upstream: mustURL(t, "http://127.0.0.1:1")})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()
	resp, err := http.Post(front.URL+"/x", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status=%d, want 502", resp.StatusCode)
	}
}

// TestMaxInflightSheds saturates the inflight gate with requests parked in
// a slow upstream and asserts the overflow arrival is shed immediately
// with 429 + Retry-After while admitted requests complete normally.
func TestMaxInflightSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(200)
	}))
	defer slow.Close()

	p, err := New(Config{Upstream: mustURL(t, slow.URL), MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	// Fill both slots.
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(front.URL+"/x", "text/plain", strings.NewReader("hi"))
			if err != nil {
				done <- result{err: err}
				return
			}
			resp.Body.Close()
			done <- result{status: resp.StatusCode}
		}()
	}
	<-entered
	<-entered

	// The third arrival must shed without waiting for the slow upstream.
	resp, err := http.Post(front.URL+"/x", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status=%d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != 200 {
			t.Errorf("admitted status=%d, want 200", r.status)
		}
	}

	st := p.Stats()
	if st.Shed != 1 {
		t.Errorf("Shed=%d, want 1", st.Shed)
	}
	if st.Forwarded != 2 {
		t.Errorf("Forwarded=%d, want 2", st.Forwarded)
	}

	// Slots freed: a new request is admitted again.
	resp2, err := http.Post(front.URL+"/x", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("post-recovery status=%d, want 200", resp2.StatusCode)
	}
}

// cannedUpstream answers every request with an empty 200 without a network
// round trip, so a request's allocation count is the proxy's own.
type cannedUpstream struct{}

func (cannedUpstream) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody}, nil
}

// TestForwardAllocs pins the allocations of one instrumented forwarded
// request. The outcome counters and the latency histogram are resolved when
// the proxy is built, so recording an outcome builds no metric name and
// looks nothing up: 45, one fewer than when every request built its
// counter's name and looked both metrics up in the registry.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, err := New(Config{Upstream: mustURL(t, "http://upstream.invalid"), Transport: cannedUpstream{}, Obs: obs.New(nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		w := httptest.NewRecorder()
		p.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/docs/x", strings.NewReader("a clean sentence")))
		if w.Code != http.StatusOK {
			t.Fatalf("status=%d", w.Code)
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(100, serve); allocs > 45 {
		t.Errorf("a forwarded request allocates %.1f objects, want ≤ 45", allocs)
	}
}
