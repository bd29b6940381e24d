package tagserver

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

const orgSecret = "The enterprise-wide migration schedule with per-team cutover dates is strictly internal to the platform group."

func fpConfig() fingerprint.Config {
	return fingerprint.Config{NGram: 6, Window: 4}
}

func newService(t *testing.T) (*httptest.Server, *policy.Engine) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fpConfig(),
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, svc := range []struct {
		name   string
		lp, lc tdm.TagSet
	}{
		{name: "wiki", lp: tdm.NewTagSet("tw"), lc: tdm.NewTagSet("tw")},
		{name: "docs", lp: tdm.NewTagSet(), lc: tdm.NewTagSet()},
	} {
		if err := registry.RegisterService(svc.name, svc.lp, svc.lc); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return srv, engine
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", "dev", fpConfig()); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := NewClient("http://x", "", fpConfig()); err == nil {
		t.Error("empty device accepted")
	}
	if _, err := NewClient("http://x", "dev", fingerprint.Config{}); err == nil {
		t.Error("bad fingerprint config accepted")
	}
}

// The headline property: text observed on device A is recognised when it
// surfaces on device B — cross-device tracking through the shared service.
func TestCrossDeviceTracking(t *testing.T) {
	srv, _ := newService(t)
	deviceA, err := NewClient(srv.URL, "laptop-alice", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	deviceB, err := NewClient(srv.URL, "laptop-bob", fpConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Alice reads the wiki page; her device registers the text.
	v, err := deviceA.Observe("wiki", "wiki/schedule#p0", orgSecret)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "allow" {
		t.Fatalf("observe verdict=%v", v)
	}

	// Bob (who never saw the wiki) pastes the same text towards docs: the
	// shared service recognises it.
	v, err = deviceB.Check(orgSecret, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "block" || !v.Violation() {
		t.Fatalf("cross-device check=%+v, want block", v)
	}
	if len(v.Sources) == 0 || v.Sources[0].Seg != "wiki/schedule#p0" {
		t.Errorf("sources=%v", v.Sources)
	}
}

func TestObserveThenUploadAndSuppress(t *testing.T) {
	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Observe("wiki", "wiki/s#p0", orgSecret); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Observe("docs", "docs/d#p0", orgSecret); err != nil {
		t.Fatal(err)
	}
	v, err := dev.CheckUpload("docs/d#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "block" {
		t.Fatalf("upload=%+v", v)
	}
	// Label shows the implicit wiki tag.
	label, err := dev.Label("docs/d#p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(label.Implicit) != 1 || label.Implicit[0] != "tw" {
		t.Errorf("label=%+v", label)
	}
	// Suppress and retry.
	if err := dev.Suppress("alice", "docs/d#p0", "tw", "approved"); err != nil {
		t.Fatal(err)
	}
	v, err = dev.CheckUpload("docs/d#p0", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != "allow" {
		t.Errorf("after suppress: %+v", v)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Observe("wiki", "wiki/s#p0", orgSecret); err != nil {
		t.Fatal(err)
	}
	stats, err := dev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.DistinctHashes == 0 {
		t.Errorf("stats=%+v", stats)
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv, _ := newService(t)
	client := srv.Client()

	// Wrong method.
	resp, err := client.Get(srv.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET observe status=%d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = client.Post(srv.URL+"/v1/observe", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status=%d", resp.StatusCode)
	}
	// Missing fields.
	resp, err = client.Post(srv.URL+"/v1/observe", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing fields status=%d", resp.StatusCode)
	}
	// Unknown destination service.
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Check("some text to check", "ghost"); err == nil {
		t.Error("unknown dest accepted")
	}
	// Unknown label.
	if _, err := dev.Label("nope#p0"); err == nil {
		t.Error("unknown label accepted")
	}
	// Missing label query.
	resp, err = client.Get(srv.URL + "/v1/label")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("label without seg status=%d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newService(t)
	dev, err := NewClient(srv.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Observe("wiki", "wiki/m#p0", orgSecret); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Check(orgSecret, "docs"); err != nil {
		t.Fatal(err)
	}
	text := getBody(t, srv.URL, "/v1/metrics")
	for _, want := range []string{
		"bf_observes_total 1",
		`bf_http_requests_total{endpoint="check",code="200"} 1`,
		"bf_violations_total 1",
		"bf_segments 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// BenchmarkTagServiceObserve measures the shared service's observe
// throughput with concurrent devices.
func BenchmarkTagServiceObserve(b *testing.B) {
	tracker, err := disclosure.NewTracker(disclosure.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		b.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	if err != nil {
		b.Fatal(err)
	}
	server, err := NewServer(engine)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	b.RunParallel(func(pb *testing.PB) {
		dev, err := NewClient(srv.URL, "bench-device", fingerprint.DefaultConfig())
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			i++
			seg := segmentID("wiki/bench", i%64)
			if _, err := dev.Observe("wiki", seg, orgSecret); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func segmentID(doc string, n int) (out segment.ID) {
	return segment.ID(doc + "#p" + string(rune('a'+n%26)) + string(rune('a'+(n/26)%26)))
}

// The wire carries hashes only — the text itself never reaches the server.
func TestTextStaysOnDevice(t *testing.T) {
	var captured []byte
	backend, engine := newService(t)
	_ = backend
	recording := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		r.Body.Read(body)
		captured = append(captured, body...)
		// Re-dispatch into a real server for a valid response.
		srv, err := NewServer(engine)
		if err != nil {
			t.Error(err)
			return
		}
		r2 := r.Clone(r.Context())
		r2.Body = http.NoBody
		r2.Body = io.NopCloser(bytes.NewReader(body))
		srv.ServeHTTP(w, r2)
	}))
	defer recording.Close()

	dev, err := NewClient(recording.URL, "laptop", fpConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Observe("wiki", "wiki/x#p0", orgSecret); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(captured), "migration schedule") {
		t.Error("plaintext crossed the wire")
	}
	if !strings.Contains(string(captured), "hashes") {
		t.Error("hashes missing from the wire")
	}
}
