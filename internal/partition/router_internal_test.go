package partition

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
)

// TestInstallDiscardsStaleRing pins the topology version to monotone
// under racing refreshes: SetRing's version check and install's ring
// swap are separate lock acquisitions, so a refresh that lost the race
// to a newer ring must be discarded by install itself, not regress the
// version.
func TestInstallDiscardsStaleRing(t *testing.T) {
	rt, err := NewRouter(SingleRing("p0", "http://a"), RouterOptions{FP: fingerprint.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}

	v3 := SingleRing("p0", "http://a")
	v3.Version = 3
	if err := rt.SetRing(v3); err != nil {
		t.Fatal(err)
	}

	// Simulate the losing side of the race: a v2 refresh passed SetRing's
	// check before v3 was swapped in, and its install runs afterwards.
	v2 := SingleRing("p0", "http://b")
	v2.Version = 2
	if err := rt.install(v2); err != nil {
		t.Fatal(err)
	}
	if got := rt.Ring().Version; got != 3 {
		t.Fatalf("ring version regressed to v%d after stale install, want v3", got)
	}
	if nodes := rt.Ring().Partitions[0].Nodes[0]; nodes != "http://a" {
		t.Fatalf("stale install replaced the newer ring's nodes: %s", nodes)
	}

	// Equal versions are discarded too.
	dup := SingleRing("p0", "http://c")
	dup.Version = 3
	if err := rt.install(dup); err != nil {
		t.Fatal(err)
	}
	if nodes := rt.Ring().Partitions[0].Nodes[0]; nodes != "http://a" {
		t.Fatalf("equal-version install replaced the installed ring's nodes: %s", nodes)
	}
}

// TestRouterIgnoresStaleReplica is the routing-tier twin of tagserver's
// stale-replica regression test: a partition group's second node is a
// standby that may lag, so Upload and Label must be answered by the
// group's primary and the standby must never be asked.
func TestRouterIgnoresStaleReplica(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/upload":
			io.WriteString(w, `{"decision":"warn","violating":["tw"]}`) //nolint:errcheck
		case "/v1/label":
			io.WriteString(w, `{"explicit":["tw"],"implicit":[],"suppressed":[]}`) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer primary.Close()
	var staleRequests atomic.Int64
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		staleRequests.Add(1)
		switch r.URL.Path {
		case "/v1/upload":
			io.WriteString(w, `{"decision":"allow"}`) //nolint:errcheck
		default: // the segment never reached this node
			http.Error(w, "unknown segment", http.StatusNotFound)
		}
	}))
	defer stale.Close()

	rt, err := NewRouter(SingleRing("p0", primary.URL, stale.URL), RouterOptions{FP: fingerprint.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Twice: a rotation over the group would reach the standby by then.
	for i := 0; i < 2; i++ {
		v, err := rt.Upload(ctx, "wiki/a#p0", "pad")
		if err != nil {
			t.Fatal(err)
		}
		if v.Decision != "warn" || len(v.Violating) != 1 || v.Violating[0] != "tw" {
			t.Errorf("Upload = %+v, want the primary's warn on tw", v)
		}
		l, err := rt.Label(ctx, "wiki/a#p0")
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Explicit) != 1 || l.Explicit[0] != "tw" {
			t.Errorf("Label = %+v, want the primary's explicit tw", l)
		}
	}
	if n := staleRequests.Load(); n != 0 {
		t.Errorf("standby node served %d requests, want 0", n)
	}
}
