package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/tagserver"
)

// startTagService serves a shared tag service for remote-mode tests.
func startTagService(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := browserflow.DefaultConfig()
	cfg.Mode = browserflow.ModeEnforcing
	mw, err := browserflow.New(cfg,
		browserflow.Service{Name: "wiki", Privilege: []browserflow.Tag{"tw"}, Confidentiality: []browserflow.Tag{"tw"}},
		browserflow.Service{Name: "docs"},
	)
	if err != nil {
		t.Fatal(err)
	}
	server, err := tagserver.NewServer(mw.Engine())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return srv
}

func remoteCtl(t *testing.T, server string, args ...string) (string, error) {
	t.Helper()
	full := append([]string{"-server", server}, args...)
	var out bytes.Buffer
	err := run(full, strings.NewReader(""), &out)
	return out.String(), err
}

func TestRemoteMode(t *testing.T) {
	srv := startTagService(t)

	out, err := remoteCtl(t, srv.URL, "-service", "wiki", "-seg", "wiki/plan#p0", "-text", ctlSecret, "observe")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "decision: allow") {
		t.Errorf("observe: %q", out)
	}

	out, err = remoteCtl(t, srv.URL, "-dest", "docs", "-text", ctlSecret, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "decision: block") || !strings.Contains(out, "wiki/plan#p0") {
		t.Errorf("check: %q", out)
	}

	// A group whose first node has stepped down: its 421 leads the check
	// to the primary.
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-BF-Primary", srv.URL)
		http.Error(w, "node is replica", http.StatusMisdirectedRequest)
	}))
	t.Cleanup(standby.Close)
	out, err = remoteCtl(t, standby.URL+","+srv.URL, "-dest", "docs", "-text", ctlSecret, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "decision: block") || !strings.Contains(out, "wiki/plan#p0") {
		t.Errorf("check through a group: %q", out)
	}

	out, err = remoteCtl(t, srv.URL, "-seg", "wiki/plan#p0", "label")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tw") {
		t.Errorf("label: %q", out)
	}

	// Suppress on a destination copy.
	if _, err := remoteCtl(t, srv.URL, "-service", "docs", "-seg", "docs/copy#p0", "-text", ctlSecret, "observe"); err != nil {
		t.Fatal(err)
	}
	if _, err := remoteCtl(t, srv.URL, "-user", "alice", "-seg", "docs/copy#p0", "-tag", "tw", "-why", "ok", "suppress"); err != nil {
		t.Fatal(err)
	}

	out, err = remoteCtl(t, srv.URL, "stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "segments: 2") || !strings.Contains(out, "audit entries: 1") {
		t.Errorf("stats: %q", out)
	}
}

func TestRemoteModeErrors(t *testing.T) {
	srv := startTagService(t)
	// Unsupported command remotely.
	if _, err := remoteCtl(t, srv.URL, "add-service"); err == nil {
		t.Error("add-service accepted remotely")
	}
	// Missing flags.
	for _, args := range [][]string{{"observe"}, {"check"}, {"suppress"}, {"label"}} {
		if _, err := remoteCtl(t, srv.URL, args...); err == nil {
			t.Errorf("%v without flags accepted", args)
		}
	}
	// Unreachable server.
	if _, err := remoteCtl(t, "http://127.0.0.1:1", "stats"); err == nil {
		t.Error("unreachable server accepted")
	}
}
