package tagserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// newSoleNode builds a node wired the way bftagd wires a partition of a
// one-partition ring: a durable journal (on MemFS), an admission pipeline
// over the engine, the obs bundle that lifts X-BF-Trace, and the partition.
func newSoleNode(tb testing.TB) http.Handler {
	tb.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{Fingerprint: fpConfig(), Tpar: 0.3, Tdoc: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		tb.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		tb.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		tb.Fatal(err)
	}
	durable, err := store.OpenDurable(store.DurableOptions{Dir: "/data", FS: faultinject.NewMemFS(1), Fsync: wal.SyncAlways}, tracker, registry)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { durable.Close() })
	engine.SetJournal(durable)
	o := obs.New(nil, 0)
	pipeline, err := admission.New(engine, admission.Config{Obs: o})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pipeline.Close(context.Background()) })
	server, err := NewServer(engine, WithObs(o), WithAdmission(pipeline), WithPartition(solePartition{}),
		WithDurabilitySource(func() (store.DurabilityStats, bool) { return durable.Stats(), true }))
	if err != nil {
		tb.Fatal(err)
	}
	return server
}

// post serves one raw POST body, with trace as its X-BF-Trace header when
// set, and returns the status and the response body.
func post(h http.Handler, path string, body []byte, trace string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// fuzzEndpoints are the POST endpoints that decode a JSON body from the
// network, in the order FuzzServerRequests' endpoint byte picks them.
var fuzzEndpoints = []string{
	"/v1/observe", "/v1/observe/batch", "/v1/check", "/v1/upload", "/v1/suppress",
	"/v1/part/observe", "/v1/part/query", "/v1/part/check", "/v1/part/prune",
}

// FuzzServerRequests throws arbitrary bodies and X-BF-Trace headers at the
// JSON endpoints of a sole-partition node. The contract under test: never
// panic and never answer 500, whatever the body; and a 200 from
// /v1/part/query only names indices of the hash list it was sent. Seeds
// are one valid body per endpoint and the hashes of the part/query body
// reversed.
func FuzzServerRequests(f *testing.F) {
	seeds := []string{
		`{"service":"wiki","seg":"wiki/plan#p0","hashes":[1,2,3,4,5]}`,
		`{"service":"docs","items":[{"seg":"docs/a#p0","hashes":[1,2,3]},{"seg":"docs/a","hashes":[4,5],"granularity":"document"}]}`,
		`{"dest":"docs","hashes":[1,2,3,4,5]}`,
		`{"seg":"wiki/plan#p0","dest":"docs"}`,
		`{"user":"alice","seg":"wiki/plan#p0","tag":"tw","justification":"published"}`,
		`{"service":"wiki","seg":"wiki/memo#p0","hashes":[1,2,3],"clock":7}`,
		`{"hashes":[1,2,3,4,5],"granularity":"paragraph"}`,
		`{"dest":"docs","sources":[{"seg":"wiki/plan#p0","disclosure":1,"threshold":0.3}],"implicit":["tw"]}`,
		`{"lo":0,"hi":4096}`,
	}
	for i, body := range seeds {
		f.Add(uint8(i), []byte(body), "trace-1")
	}
	f.Add(uint8(6), []byte(`{"hashes":[5,4,3,2,1]}`), "")

	node := newSoleNode(f) // one state for all executions, as a live node has
	f.Fuzz(func(t *testing.T, ep uint8, body []byte, trace string) {
		path := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		code, resp := post(node, path, body, trace)
		if code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500: %s", path, body, resp)
		}
		if path != "/v1/part/query" || code != http.StatusOK {
			return
		}
		var req PartQueryRequest
		var got policy.PartResolve
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the handler cannot have decoded: %v", err)
		}
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatal(err)
		}
		in := func(i int) bool { return i >= 0 && i < len(req.Hashes) }
		for _, o := range got.Oldest {
			if !in(o.Idx) {
				t.Fatalf("%q: oldest index %d of %d hashes", body, o.Idx, len(req.Hashes))
			}
		}
		for _, c := range got.Cands {
			for _, i := range c.Overlap {
				if !in(i) {
					t.Fatalf("%q: overlap index %d of %d hashes", body, i, len(req.Hashes))
				}
			}
		}
	})
}

// /v1/part/query answers with indices into the caller's hash list, and a
// routing tier sends it normalised lists: one that does not strictly ascend
// is refused rather than answered with overlaps it cannot count.
func TestPartQueryRequiresAscendingHashes(t *testing.T) {
	node := newSoleNode(t)
	hashes := hashRange(1000, 34)
	observe, err := json.Marshal(PartObserveRequest{Service: "wiki", Seg: "wiki/plan#p0", Hashes: hashes})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(node, "/v1/part/observe", observe, ""); code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", code, body)
	}
	query := func(hs []uint32) (int, []byte) {
		body, err := json.Marshal(PartQueryRequest{Hashes: hs})
		if err != nil {
			t.Fatal(err)
		}
		return post(node, "/v1/part/query", body, "")
	}

	code, body := query(hashes)
	var got policy.PartResolve
	if code != http.StatusOK || json.Unmarshal(body, &got) != nil {
		t.Fatalf("sorted query: status %d: %s", code, body)
	}
	if c := got.Cands; got.Clock != 2 || len(got.Oldest) != 34 || len(c) != 1 ||
		c[0].Len != 34 || c[0].Threshold != 0.3 || len(c[0].Overlap) != 34 || !slices.Equal(c[0].Tags, []string{"tw"}) {
		t.Fatalf("sorted query answered %s; want 34 oldest holders and one tw candidate covering all 34 at clock 2", body)
	}
	for i, o := range got.Oldest {
		if o.Idx != i || o.Seg != "wiki/plan#p0" || o.Seq != 2 || got.Cands[0].Overlap[i] != i {
			t.Fatalf("sorted query answered %s; want index %d held by wiki/plan#p0 since 2", body, i)
		}
	}

	reversed := slices.Clone(hashes)
	slices.Reverse(reversed)
	duplicate := append([]uint32{hashes[0]}, hashes...)
	for name, hs := range map[string][]uint32{"reversed": reversed, "duplicate": duplicate} {
		if code, body := query(hs); code != http.StatusBadRequest {
			t.Errorf("%s query: status %d (%s), want 400", name, code, body)
		}
	}
}
