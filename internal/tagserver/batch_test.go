package tagserver

// Tests for the /v1/observe/batch endpoint and its client support: the
// batched flush must validate like the singular endpoint, return one
// verdict per item in request order, count every item in the observe
// metrics, and — the defining property — produce exactly the verdicts the
// equivalent singular call sequence would.

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
)

const batchSecret = "The acquisition shortlist names three candidate companies and the planned offer range for each."

// TestBatchObserveRoundTrip drives Client.ObserveBatch end to end: mixed
// paragraph/document items, per-item verdicts in order, and cross-device
// recognition of batched content.
func TestBatchObserveRoundTrip(t *testing.T) {
	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}

	items := []BatchItem{
		{Seg: "wiki/plan#p0", Text: batchSecret},
		{Seg: "wiki/plan#p1", Text: batchSecret}, // same text: discloses from p0
		{Seg: "wiki/plan", Text: batchSecret, Granularity: "document"},
		{Seg: "wiki/plan#p0", Text: batchSecret}, // unchanged re-observation (cache hit path)
	}
	verdicts, err := dev.ObserveBatch("wiki", items)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != len(items) {
		t.Fatalf("got %d verdicts for %d items", len(verdicts), len(items))
	}
	for i, v := range verdicts {
		if v.Decision != "allow" {
			t.Errorf("item %d: verdict=%+v, want allow (wiki is cleared for its own tag)", i, v)
		}
	}
	if len(verdicts[1].Sources) == 0 || verdicts[1].Sources[0].Seg != "wiki/plan#p0" {
		t.Errorf("duplicate paragraph should disclose from p0, sources=%+v", verdicts[1].Sources)
	}

	// Content batched from one device is recognised when another device
	// checks it — the batch path feeds the same shared tracker.
	other, err := NewClient(srv.URL, "laptop-2", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := other.Check(batchSecret, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "block" || !v.Violation() {
		t.Fatalf("cross-device check after batch = %+v, want block", v)
	}
}

// TestBatchMatchesSingularVerdicts pins the batch endpoint to the exact
// verdict sequence of the equivalent one-at-a-time Observe calls against
// an identically configured service.
func TestBatchMatchesSingularVerdicts(t *testing.T) {
	batchSrv, _ := newService(t)
	singleSrv, _ := newService(t)
	batchDev, err := NewClient(batchSrv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	singleDev, err := NewClient(singleSrv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}

	items := []BatchItem{
		{Seg: "wiki/a#p0", Text: batchSecret},
		{Seg: "wiki/a#p1", Text: batchSecret + " One extra closing sentence pushes this revision past the original."},
		{Seg: "wiki/a", Text: batchSecret, Granularity: "document"},
		{Seg: "wiki/a#p0", Text: batchSecret}, // repeat → cache hit
		{Seg: "wiki/b#p0", Text: strings.Repeat("Unrelated prose about lighthouse maintenance schedules on the coast. ", 3)},
	}
	singular := func(service string, items []BatchItem) []Verdict {
		t.Helper()
		want := make([]Verdict, 0, len(items))
		for _, item := range items {
			fp, err := fingerprint.Compute(item.Text, singleDev.FingerprintConfig())
			if err != nil {
				t.Fatal(err)
			}
			v, err := singleDev.ObserveHashes(context.Background(), service, item.Seg, fp.Hashes(), item.Granularity)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		return want
	}
	got, err := batchDev.ObserveBatch("wiki", items)
	if err != nil {
		t.Fatal(err)
	}
	want := singular("wiki", items)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch diverged from singular sequence:\nbatch:    %+v\nsingular: %+v", got, want)
	}

	// A segment edited twice in one batch is judged per edit: a copy of
	// the wiki secret into docs blocks even when the same batch later
	// rewrites it to unrelated text, and the reverse.
	unrelated := strings.Repeat("Notes on the canteen menu rotation for the coming autumn weeks. ", 3)
	items = []BatchItem{
		{Seg: "docs/x#p0", Text: batchSecret},
		{Seg: "docs/x#p0", Text: unrelated},
		{Seg: "docs/y#p0", Text: unrelated},
		{Seg: "docs/y#p0", Text: batchSecret},
	}
	got, err = batchDev.ObserveBatch("docs", items)
	if err != nil {
		t.Fatal(err)
	}
	want = singular("docs", items)
	if decisions := []string{want[0].Decision, want[1].Decision, want[2].Decision, want[3].Decision}; !reflect.DeepEqual(decisions, []string{"block", "allow", "allow", "block"}) {
		t.Fatalf("singular decisions = %v, want [block allow allow block]", decisions)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch diverged from singular sequence on repeated segments:\nbatch:    %+v\nsingular: %+v", got, want)
	}
}

// TestBatchObserveValidation exercises the server-side request checks.
func TestBatchObserveValidation(t *testing.T) {
	srv, _ := newService(t)
	client := srv.Client()
	post := func(body string) int {
		t.Helper()
		resp, err := client.Post(srv.URL+"/v1/observe/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Wrong method.
	resp, err := client.Get(srv.URL + "/v1/observe/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status=%d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", "{"},
		{"missing service", `{"device":"d","items":[{"seg":"a#p0","hashes":[1]}]}`},
		{"empty items", `{"device":"d","service":"wiki","items":[]}`},
		{"item missing seg", `{"device":"d","service":"wiki","items":[{"hashes":[1]}]}`},
		{"bad granularity", `{"device":"d","service":"wiki","items":[{"seg":"a#p0","hashes":[1],"granularity":"sentence"}]}`},
		{"unknown service", `{"device":"d","service":"ghost","items":[{"seg":"a#p0","hashes":[1]}]}`},
	}
	for _, tc := range cases {
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status=%d, want 400", tc.name, code)
		}
	}

	// A rejected batch must not register any of its items.
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := dev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 0 {
		t.Errorf("rejected batches registered %d segments", stats.Segments)
	}
}

// TestBatchObserveMetrics asserts that a flush of N items advances the
// observe counter by N, exactly as N singular calls would.
func TestBatchObserveMetrics(t *testing.T) {
	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ObserveBatch("wiki", []BatchItem{
		{Seg: "wiki/m#p0", Text: batchSecret},
		{Seg: "wiki/m#p1", Text: batchSecret + " More."},
		{Seg: "wiki/m#p2", Text: batchSecret + " Even more."},
	}); err != nil {
		t.Fatal(err)
	}
	body := getBody(t, srv.URL, "/v1/metrics")
	if !strings.Contains(body, "bf_observes_total 3") {
		t.Errorf("metrics should count 3 batched observes:\n%s", body)
	}
}

// TestBatchUnavailableClassification asserts that transport-level failures
// of the batch path are classified as UnavailableError so the failover
// layer treats them as outages, while 4xx rejections are not.
func TestBatchUnavailableClassification(t *testing.T) {
	down, err := NewClient("http://127.0.0.1:1", "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = down.ObserveBatch("wiki", []BatchItem{{Seg: "a#p0", Text: batchSecret}})
	if err == nil || !IsUnavailable(err) {
		t.Errorf("transport failure not classified unavailable: %v", err)
	}

	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.ObserveBatch("ghost", []BatchItem{{Seg: "a#p0", Text: batchSecret}})
	if err == nil || IsUnavailable(err) {
		t.Errorf("application rejection misclassified: %v", err)
	}
}
