package partition_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/tagserver"
)

// serve sends one request to h and returns the recorded response.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// routerHealthz decodes the routing tier's /healthz.
func routerHealthz(t *testing.T, h http.Handler) (out struct {
	Status      string                `json:"status"`
	Role        string                `json:"role"`
	RingVersion uint64                `json:"ringVersion"`
	Clock       uint64                `json:"clock"`
	Partitions  []partition.Partition `json:"partitions"`
}) {
	t.Helper()
	rec := serve(h, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRouterHealthzAndRing pins the two endpoints an operator's view of
// the routing tier reads: /healthz names the tier's role, the installed
// ring's version and partitions, and its logical clock, which an observe
// routed through it advances; /v1/part/ring serves that ring in the framed
// file format under its version header, GET only.
func TestRouterHealthzAndRing(t *testing.T) {
	h := newClusterHandler(t, 2)
	want := evenRing(t, []string{"http://p0", "http://p1"})

	before := routerHealthz(t, h)
	if before.Status != "ok" || before.Role != "router" || before.RingVersion != want.Version {
		t.Errorf("healthz = %+v, want status ok, role router, ring v%d", before, want.Version)
	}
	if !reflect.DeepEqual(before.Partitions, want.Partitions) {
		t.Errorf("healthz partitions = %+v, want %+v", before.Partitions, want.Partitions)
	}
	if rec := serve(h, http.MethodPost, "/v1/observe", `{"service":"docs","seg":"docs/a#p0","hashes":[1,2,3]}`); rec.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", rec.Code, rec.Body)
	}
	if after := routerHealthz(t, h); after.Clock <= before.Clock {
		t.Errorf("clock %d after a routed observe, was %d: want it advanced", after.Clock, before.Clock)
	}

	rec := serve(h, http.MethodGet, "/v1/part/ring", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("ring: status %d: %s", rec.Code, rec.Body)
	}
	if v := rec.Header().Get(tagserver.HeaderRingVersion); v != "1" {
		t.Errorf("%s = %q, want 1", tagserver.HeaderRingVersion, v)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := partition.DecodeRing(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served ring = %+v, want %+v", got, want)
	}
	if rec := serve(h, http.MethodPost, "/v1/part/ring", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST ring: status %d, want 405", rec.Code)
	}
}
