package tagserver

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/tdm"
)

// routeNode is one fake tag-service node for the routing table test. Its
// API answer is the same for /v1/observe and /v1/check, so a write and a
// former read meet exactly the same cluster.
type routeNode struct {
	name string
	down bool // closed before the test runs: connection refused

	// API answer: status 200 serves a verdict; 421 carries the redirect
	// fields below; anything else is served bare.
	status     int
	redirectTo string // node name advertised in X-BF-Primary
	term       uint64 // X-BF-Term on a 421
	ring       uint64 // X-BF-Ring-Version on a 421
	retryAfter string // Retry-After on a 429 or 5xx

	// health is the /healthz replication section; nil serves a
	// standalone node's health (no section).
	health *HealthReplication
}

// TestClusterClientRouting pins the one routing rule: current primary →
// follow 421 redirects up to the hop cap → /healthz discovery when the
// primary is unreachable or failing, or the redirect chain loops, with a
// re-send only to a node discovery newly adopted. Every case runs once as
// a write (Observe) and once as a former read (Check); the two must put
// the same requests on the wire in the same order and leave the client
// in the same state.
func TestClusterClientRouting(t *testing.T) {
	ok := routeNode{status: http.StatusOK, health: &HealthReplication{Role: "primary", Term: 1}}
	standby := &HealthReplication{Role: "replica"}
	unavailable := func(err error) bool { _, shed := AsOverloaded(err); return IsUnavailable(err) && !shed }
	node := func(name string, n routeNode) routeNode { n.name = name; return n }

	for _, tc := range []struct {
		name        string
		nodes       []routeNode // nodes[0] is the configured primary, the rest its replicas
		wantWire    []string
		wantPrimary string
		wantTerm    uint64
		wantErr     func(error) bool
	}{
		{
			name: "421 with X-BF-Primary is followed and adopted",
			nodes: []routeNode{
				node("A", routeNode{status: 421, redirectTo: "B"}),
				node("B", ok),
			},
			wantWire:    []string{"A api", "B api"},
			wantPrimary: "B",
		},
		{
			name: "ping-pong stops at the hop cap and falls back to discovery",
			nodes: []routeNode{
				node("A", routeNode{status: 421, redirectTo: "B", health: standby}),
				node("B", routeNode{status: 421, redirectTo: "A", health: standby}),
				node("C", ok),
			},
			wantWire:    []string{"A api", "B api", "A healthz", "B healthz", "C healthz", "C api term=1"},
			wantPrimary: "C",
			wantTerm:    1,
		},
		{
			name: "ping-pong with no primary to discover gives up",
			nodes: []routeNode{
				node("A", routeNode{status: 421, redirectTo: "B", health: standby}),
				node("B", routeNode{status: 421, redirectTo: "A", health: standby}),
			},
			wantWire:    []string{"A api", "B api", "A healthz", "B healthz"},
			wantPrimary: "A",
			wantErr:     func(err error) bool { _, is := AsNotPrimary(err); return is },
		},
		{
			name: "421 carrying a ring version is returned untouched",
			nodes: []routeNode{
				node("A", routeNode{status: 421, redirectTo: "B", term: 9, ring: 7}),
				node("B", ok),
			},
			wantWire:    []string{"A api"},
			wantPrimary: "A",
			wantErr: func(err error) bool {
				np, is := AsNotPrimary(err)
				return is && np.RingVersion == 7
			},
		},
		{
			name: "unreachable primary is replaced by the node reporting role primary",
			nodes: []routeNode{
				node("A", routeNode{down: true}),
				node("B", routeNode{status: http.StatusOK, health: standby}),
				node("C", routeNode{status: http.StatusOK, health: &HealthReplication{Role: "primary", Term: 4}}),
			},
			wantWire:    []string{"B healthz", "C healthz", "C api term=4"},
			wantPrimary: "C",
			wantTerm:    4,
		},
		{
			name: "term learned from a 421 is stamped on the next request",
			nodes: []routeNode{
				node("A", routeNode{status: 421, redirectTo: "B", term: 5}),
				node("B", ok),
			},
			wantWire:    []string{"A api", "B api term=5"},
			wantPrimary: "B",
			wantTerm:    5,
		},
		{
			name: "application-level 4xx is returned without a second attempt",
			nodes: []routeNode{
				node("A", routeNode{status: http.StatusBadRequest}),
				node("B", ok),
			},
			wantWire:    []string{"A api"},
			wantPrimary: "A",
			wantErr: func(err error) bool {
				var se *StatusError
				return errors.As(err, &se) && se.Code == http.StatusBadRequest
			},
		},
		{
			name: "a lone node answering 503 is asked once and never probed",
			nodes: []routeNode{
				node("A", routeNode{status: http.StatusServiceUnavailable, retryAfter: "5", health: ok.health}),
			},
			wantWire:    []string{"A api"},
			wantPrimary: "A",
			wantErr:     unavailable,
		},
		{
			name: "a sick primary still reporting role primary is probed once, not re-sent",
			nodes: []routeNode{
				node("A", routeNode{status: http.StatusServiceUnavailable, retryAfter: "5", health: ok.health}),
				node("B", routeNode{status: http.StatusOK, health: standby}),
			},
			wantWire:    []string{"A api", "A healthz"},
			wantPrimary: "A",
			wantTerm:    1,
			wantErr:     unavailable,
		},
		{
			name: "a 429 is returned at once with its Retry-After",
			nodes: []routeNode{
				node("A", routeNode{status: http.StatusTooManyRequests, retryAfter: "2", health: ok.health}),
				node("B", ok),
			},
			wantWire:    []string{"A api"},
			wantPrimary: "A",
			wantErr: func(err error) bool {
				oe, shed := AsOverloaded(err)
				return shed && oe.RetryAfter == 2*time.Second
			},
		},
		{
			name: "a lone node that is down puts nothing on the wire",
			nodes: []routeNode{
				node("A", routeNode{down: true}),
			},
			wantPrimary: "A",
			wantErr:     unavailable,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				Wire    []string
				Primary string
				Term    uint64
				Err     bool
			}
			run := func(op string) outcome {
				var (
					mu   sync.Mutex
					wire []string
					urls = map[string]string{}
				)
				nameOf := map[string]string{}
				for _, n := range tc.nodes {
					srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						event := n.name + " api"
						if r.URL.Path == "/healthz" {
							event = n.name + " healthz"
						} else if r.URL.Path != "/v1/"+op {
							t.Errorf("node %s: unexpected path %s", n.name, r.URL.Path)
						}
						if term := r.Header.Get("X-BF-Term"); term != "" {
							event += " term=" + term
						}
						mu.Lock()
						wire = append(wire, event)
						mu.Unlock()
						switch {
						case r.URL.Path == "/healthz":
							json.NewEncoder(w).Encode(HealthResponse{Status: "ok", Replication: n.health}) //nolint:errcheck
						case n.status == http.StatusOK:
							json.NewEncoder(w).Encode(Verdict{Decision: "warn", Violating: []tdm.Tag{"tw"}}) //nolint:errcheck
						case n.status == http.StatusMisdirectedRequest:
							w.Header().Set("X-BF-Primary", urls[n.redirectTo])
							if n.term > 0 {
								w.Header().Set("X-BF-Term", strconv.FormatUint(n.term, 10))
							}
							if n.ring > 0 {
								w.Header().Set(HeaderRingVersion, strconv.FormatUint(n.ring, 10))
							}
							http.Error(w, "not primary", n.status)
						default:
							if n.retryAfter != "" {
								w.Header().Set("Retry-After", n.retryAfter)
							}
							http.Error(w, "rejected", n.status)
						}
					}))
					if n.down {
						srv.Close()
					} else {
						t.Cleanup(srv.Close)
					}
					urls[n.name] = srv.URL
					nameOf[srv.URL] = n.name
				}
				var group []string
				for _, n := range tc.nodes {
					group = append(group, urls[n.name])
				}
				c, err := NewClient(strings.Join(group, ","), "dev", fpConfig())
				if err != nil {
					t.Fatal(err)
				}
				const text = "the secret launch plan for the atlas project"
				var v Verdict
				switch op {
				case "observe":
					v, err = c.Observe("wiki", "wiki/launch#p0", text)
				case "check":
					v, err = c.Check(text, "pad")
				}
				switch {
				case tc.wantErr == nil && err != nil:
					t.Errorf("%s: %v", op, err)
				case tc.wantErr == nil && v.Decision != "warn":
					t.Errorf("%s: verdict %+v, want the fake's warn", op, v)
				case tc.wantErr != nil && (err == nil || !tc.wantErr(err)):
					t.Errorf("%s: err = %v, not the error this case expects", op, err)
				}
				c.mu.Lock()
				defer c.mu.Unlock()
				return outcome{Wire: wire, Primary: nameOf[c.primary], Term: c.term, Err: err != nil}
			}

			want := outcome{Wire: tc.wantWire, Primary: tc.wantPrimary, Term: tc.wantTerm, Err: tc.wantErr != nil}
			write, read := run("observe"), run("check")
			if !reflect.DeepEqual(write, want) {
				t.Errorf("observe: got %+v, want %+v", write, want)
			}
			if !reflect.DeepEqual(read, write) {
				t.Errorf("check routed differently from observe:\n check   %+v\n observe %+v", read, write)
			}
		})
	}
}
