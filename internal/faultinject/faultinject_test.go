package faultinject

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/resilience"
)

func upstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"decision": "allow"}) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, inj *Injector, method, url string) (*http.Response, error) {
	t.Helper()
	var body io.Reader
	if method == http.MethodPost {
		body = strings.NewReader(`{"x":1}`)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return inj.RoundTrip(req)
}

func TestPassThrough(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status=%d", resp.StatusCode)
	}
	if inj.Attempts("/v1/stats") != 1 || inj.Delivered("GET", "/v1/stats") != 1 || inj.Injected("/v1/stats") != 0 {
		t.Errorf("attempts=%d delivered=%d injected=%d",
			inj.Attempts("/v1/stats"), inj.Delivered("GET", "/v1/stats"), inj.Injected("/v1/stats"))
	}
}

func TestConnErrorIsNotDelivered(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{PathPrefix: "/v1/observe", Kind: KindConnError})
	_, err := do(t, inj, http.MethodPost, srv.URL+"/v1/observe")
	if err == nil {
		t.Fatal("expected error")
	}
	var ns *NotSentError
	if !errors.As(err, &ns) {
		t.Fatalf("err=%T, want *NotSentError", err)
	}
	if !resilience.NotDelivered(err) {
		t.Error("resilience.NotDelivered rejected the marker")
	}
	if inj.Delivered("POST", "/v1/observe") != 0 {
		t.Error("conn-error counted as delivered")
	}
	if inj.Injected("/v1/observe") != 1 {
		t.Error("fault not counted")
	}
}

func TestResetAfterSendCountsDelivery(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{PathPrefix: "/v1/observe", Kind: KindResetAfterSend})
	_, err := do(t, inj, http.MethodPost, srv.URL+"/v1/observe")
	if err == nil {
		t.Fatal("expected error")
	}
	if resilience.NotDelivered(err) {
		t.Error("reset-after-send must NOT claim the request was unsent")
	}
	if inj.Delivered("POST", "/v1/observe") != 1 {
		t.Error("delivery not counted")
	}
}

func TestInjectedStatus(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{PathPrefix: "/v1/", Kind: KindStatus, Status: 503})
	resp, err := do(t, inj, http.MethodPost, srv.URL+"/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("status=%d", resp.StatusCode)
	}
	if inj.Delivered("POST", "/v1/check") != 1 {
		t.Error("status fault should count as delivered (server consumed the body)")
	}
}

func TestTruncatedAndMalformedJSON(t *testing.T) {
	srv := upstream(t)
	for _, kind := range []Kind{KindTruncateBody, KindMalformedJSON} {
		inj := New(srv.Client().Transport, 1)
		inj.AddRule(Rule{Kind: kind})
		resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var out map[string]string
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if decErr == nil {
			t.Errorf("%s: body decoded cleanly, want corruption", kind)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	var slept time.Duration
	inj.SetSleep(func(d time.Duration) { slept += d })
	inj.AddRule(Rule{Kind: KindLatency, Latency: 250 * time.Millisecond})
	resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 250*time.Millisecond {
		t.Errorf("slept=%v", slept)
	}
}

func TestRuleTimesBudget(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{Kind: KindConnError, Times: 2})
	for i := 0; i < 2; i++ {
		if _, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats"); err == nil {
			t.Fatalf("call %d: expected injected error", i)
		}
	}
	resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
	if err != nil {
		t.Fatalf("rule exceeded Times budget: %v", err)
	}
	resp.Body.Close()
}

func TestMethodAndPrefixMatching(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{PathPrefix: "/v1/observe", Method: http.MethodPost, Kind: KindConnError})

	// Different path and different method both pass through.
	resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = do(t, inj, http.MethodPost, srv.URL+"/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := do(t, inj, http.MethodPost, srv.URL+"/v1/observe"); err == nil {
		t.Fatal("matching request not faulted")
	}
}

// Same seed, same probabilistic fault sequence: chaos runs reproduce.
func TestSeededDeterminism(t *testing.T) {
	srv := upstream(t)
	sequence := func(seed int64) []bool {
		inj := New(srv.Client().Transport, seed)
		inj.AddRule(Rule{Kind: KindConnError, P: 0.5})
		var out []bool
		for i := 0; i < 32; i++ {
			resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := sequence(99), sequence(99)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			diverged = true
		}
	}
	if diverged {
		t.Error("same seed produced different fault sequences")
	}
	c := sequence(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences (suspicious)")
	}
}

func TestClearRulesAndReset(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	inj.AddRule(Rule{Kind: KindConnError})
	if _, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats"); err == nil {
		t.Fatal("rule inactive")
	}
	inj.ClearRules()
	resp, err := do(t, inj, http.MethodGet, srv.URL+"/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	inj.Reset()
	if inj.Attempts("/v1/stats") != 0 {
		t.Error("Reset did not clear counters")
	}
}

// A stalled response delivers status and headers, then delays the first
// body read — slow consumer, not an error.
func TestStallDelaysBodyNotDelivery(t *testing.T) {
	srv := upstream(t)
	inj := New(srv.Client().Transport, 1)
	var slept time.Duration
	inj.SetSleep(func(d time.Duration) { slept += d })
	inj.AddRule(Rule{Kind: KindStall, Latency: 400 * time.Millisecond})

	resp, err := do(t, inj, http.MethodPost, srv.URL+"/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Headers are here, no sleep yet: the stall hits the body, not the
	// round-trip.
	if resp.StatusCode != 200 {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	if slept != 0 {
		t.Fatalf("slept %v before the body was read", slept)
	}
	if inj.Delivered("POST", "/v1/observe") != 1 {
		t.Error("stalled request should count as delivered")
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if slept != 400*time.Millisecond {
		t.Errorf("slept=%v, want 400ms on first body read", slept)
	}
	if out["decision"] != "allow" {
		t.Errorf("body=%v, want intact payload after the stall", out)
	}
}

// TestHostsServesByHost: a host's handler answers its requests as a server
// would see them, through an Injector; an unknown host is refused like a
// closed port.
func TestHostsServesByHost(t *testing.T) {
	hosts := NewHosts()
	hosts.Handle("a:7000", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		io.WriteString(w, r.Host+" "+r.Method+" "+r.RequestURI+" "+string(body)) //nolint:errcheck
	}))
	client := &http.Client{Transport: New(hosts, 1)}
	resp, err := client.Post("http://a:7000/v1/check?x=1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "a:7000 POST /v1/check?x=1 {}"; string(got) != want || resp.StatusCode != http.StatusOK {
		t.Errorf("served %d %q, want 200 %q", resp.StatusCode, got, want)
	}
	if _, err := client.Get("http://b/healthz"); !resilience.NotDelivered(err) {
		t.Errorf("unknown host: %v, want a not-sent error", err)
	}
}
