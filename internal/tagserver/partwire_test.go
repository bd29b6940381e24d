package tagserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// bodyRecorder is a transport that keeps each request body and answers
// every request 200 with an allow verdict, wrapped the way a
// /v1/part/observe reply carries it on that path.
type bodyRecorder struct{ bodies []string }

func (r *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	r.bodies = append(r.bodies, string(body))
	reply := `{"decision":"allow"}`
	if req.URL.Path == "/v1/part/observe" {
		reply = `{"verdict":` + reply + `}`
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(reply)),
		Request:    req,
	}, nil
}

// TestPartWirePinned pins the node↔router bodies byte for byte. Their Go
// types are the engine's own (policy.PartResolve, disclosure.Source,
// disclosure.RemoteCand, index.OldestRef, segment.KeyRange), so a renamed
// tag, a reordered field or a nil slice where the wire carries [] changes
// these bytes and fails here. Requests are captured from the Client that
// sends them; replies are marshalled from fixed values and must also
// survive the receiver's decode unchanged.
func TestPartWirePinned(t *testing.T) {
	ctx := context.Background()
	rec := &bodyRecorder{}
	c, err := NewClient("http://node", "dev", fpConfig(), WithTransport(rec))
	if err != nil {
		t.Fatal(err)
	}
	sent := func(call func() error) string {
		t.Helper()
		rec.bodies = nil
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if len(rec.bodies) != 1 {
			t.Fatalf("%d requests sent, want 1", len(rec.bodies))
		}
		return rec.bodies[0]
	}
	marshal := func(v interface{}) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	sources := []disclosure.Source{
		{Seg: "wiki/plan#p0", Disclosure: 0.75, Threshold: 0.3},
		{Seg: "docs/a#p1", Disclosure: 0.5, Threshold: 0.25},
	}
	tags := map[segment.ID][]string{"wiki/plan#p0": {"tw"}}
	observe := func(resolved *PartResolved) func() error {
		return func() error {
			_, err := c.PartObserve(ctx, "wiki", "wiki/memo#p0", []uint32{1, 2, 3}, "paragraph", 7, resolved)
			return err
		}
	}
	resolve := policy.PartResolve{
		Clock: 9,
		Oldest: []index.OldestRef{
			{Idx: 0, Seg: "wiki/plan#p0", Seq: 3},
			{Idx: 2, Seg: "docs/a#p1", Seq: 5},
		},
		Cands: []disclosure.RemoteCand{
			{Seg: "wiki/plan#p0", Len: 34, Threshold: 0.3, Overlap: []int{0, 2}, Tags: []string{"tw"}},
			{Seg: "docs/a#p1", Len: 10, Threshold: 0.25},
		},
	}
	warn := Verdict{
		Decision:  "warn",
		Violating: []tdm.Tag{"tw"},
		Sources:   []SourceDT{{Seg: "wiki/plan#p0", Disclosure: 0.75}},
	}

	requests := []struct{ name, got, want string }{
		{"observe at a sole partition", sent(observe(nil)),
			`{"device":"dev","service":"wiki","seg":"wiki/memo#p0","hashes":[1,2,3],"granularity":"paragraph","clock":7}`},
		{"observe resolved", sent(observe(&PartResolved{Sources: sources, Tags: tags})),
			`{"device":"dev","service":"wiki","seg":"wiki/memo#p0","hashes":[1,2,3],"granularity":"paragraph","clock":7,"resolved":{"sources":[{"seg":"wiki/plan#p0","disclosure":0.75,"threshold":0.3},{"seg":"docs/a#p1","disclosure":0.5,"threshold":0.25}],"tags":{"wiki/plan#p0":["tw"]}}}`},
		{"observe resolved, empty resolve", sent(observe(&PartResolved{})),
			`{"device":"dev","service":"wiki","seg":"wiki/memo#p0","hashes":[1,2,3],"granularity":"paragraph","clock":7,"resolved":{"sources":[]}}`},
		{"query", sent(func() error { _, err := c.PartQuery(ctx, []uint32{1, 2, 3}, "document"); return err }),
			`{"hashes":[1,2,3],"granularity":"document"}`},
		{"check", sent(func() error { _, err := c.PartCheck(ctx, "docs", sources, []string{"tw"}); return err }),
			`{"device":"dev","dest":"docs","sources":[{"seg":"wiki/plan#p0","disclosure":0.75,"threshold":0.3},{"seg":"docs/a#p1","disclosure":0.5,"threshold":0.25}],"implicit":["tw"]}`},
		{"check, no sources", sent(func() error { _, err := c.PartCheck(ctx, "docs", nil, nil); return err }),
			`{"device":"dev","dest":"docs"}`},
		{"prune", marshal(segment.KeyRange{Lo: 4096, Hi: 8191}),
			`{"lo":4096,"hi":8191}`},
	}
	for _, q := range requests {
		if q.got != q.want {
			t.Errorf("%s request:\ngot  %s\nwant %s", q.name, q.got, q.want)
		}
	}

	replies := []struct {
		name string
		v    interface{}
		want string
	}{
		{"observe verdict", PartObserveResponse{Verdict: &warn},
			`{"verdict":{"decision":"warn","violating":["tw"],"sources":[{"seg":"wiki/plan#p0","disclosure":0.75}]}}`},
		{"query", resolve,
			`{"clock":9,"oldest":[{"i":0,"seg":"wiki/plan#p0","seq":3},{"i":2,"seg":"docs/a#p1","seq":5}],"cands":[{"seg":"wiki/plan#p0","len":34,"thr":0.3,"ov":[0,2],"tags":["tw"]},{"seg":"docs/a#p1","len":10,"thr":0.25}]}`},
		{"verdict", warn,
			`{"decision":"warn","violating":["tw"],"sources":[{"seg":"wiki/plan#p0","disclosure":0.75}]}`},
		{"allow verdict", Verdict{Decision: "allow"},
			`{"decision":"allow"}`},
		{"batch", BatchObserveResponse{Verdicts: []Verdict{{Decision: "allow"}, warn}},
			`{"verdicts":[{"decision":"allow"},{"decision":"warn","violating":["tw"],"sources":[{"seg":"wiki/plan#p0","disclosure":0.75}]}]}`},
		{"empty batch", BatchObserveResponse{Verdicts: []Verdict{}},
			`{"verdicts":[]}`},
	}
	for _, q := range replies {
		if got := marshal(q.v); got != q.want {
			t.Errorf("%s reply:\ngot  %s\nwant %s", q.name, got, q.want)
		}
		back := reflect.New(reflect.TypeOf(q.v))
		if err := json.Unmarshal([]byte(q.want), back.Interface()); err != nil {
			t.Fatalf("%s reply: %v", q.name, err)
		}
		if got := marshal(back.Elem().Interface()); got != q.want {
			t.Errorf("%s reply does not survive its decode:\ngot  %s\nwant %s", q.name, got, q.want)
		}
	}

	// A node's own /v1/part/query reply, end to end through its handler.
	node := newWiredNode(t).server
	if code, body := serve(t, node, http.MethodPost, "/v1/part/observe", json.RawMessage(`{"service":"wiki","seg":"wiki/plan#p0","hashes":[1,2,3,4]}`)); code != http.StatusOK {
		t.Fatalf("observe: %d %s", code, body)
	}
	const served = `{"clock":2,"oldest":[{"i":1,"seg":"wiki/plan#p0","seq":2},{"i":2,"seg":"wiki/plan#p0","seq":2}],"cands":[{"seg":"wiki/plan#p0","len":4,"thr":0.3,"ov":[1,2],"tags":["tw"]}]}`
	if code, body := serve(t, node, http.MethodPost, "/v1/part/query", json.RawMessage(`{"hashes":[0,2,3,9]}`)); code != http.StatusOK || strings.TrimSpace(body) != served {
		t.Errorf("served query reply: %d\ngot  %s\nwant %s", code, body, served)
	}
}

// /v1/part/query answers with indices into the caller's hash list, and a
// routing tier sends it normalised lists: one that does not strictly ascend
// is refused rather than answered with overlaps it cannot count.
func TestPartQueryRequiresAscendingHashes(t *testing.T) {
	node := newWiredNode(t).server
	hashes := hashRange(1000, 34)
	if code, body := serve(t, node, http.MethodPost, "/v1/part/observe", PartObserveRequest{Service: "wiki", Seg: "wiki/plan#p0", Hashes: hashes}); code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", code, body)
	}
	query := func(hs []uint32) (int, string) {
		return serve(t, node, http.MethodPost, "/v1/part/query", PartQueryRequest{Hashes: hs})
	}

	code, body := query(hashes)
	var got policy.PartResolve
	if code != http.StatusOK || json.Unmarshal([]byte(body), &got) != nil {
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
