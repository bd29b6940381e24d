package dashboard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/tdm"
)

func setup(t *testing.T) *httptest.Server {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
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
	if err := registry.ObserveSegment("wiki/guide#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveParagraph("wiki/guide#p0", "A paragraph with enough text to fingerprint meaningfully."); err != nil {
		t.Fatal(err)
	}
	if err := registry.SuppressTag("alice", "wiki/guide#p0", "tw", "approved <script>"); err != nil {
		t.Fatal(err)
	}
	h, err := New(tracker, registry)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestOverviewPage(t *testing.T) {
	srv := setup(t)
	body := get(t, srv.URL+"/")
	for _, want := range []string{"paragraph segments", "audit entries", "<nav>"} {
		if !strings.Contains(body, want) {
			t.Errorf("overview missing %q", want)
		}
	}
}

func TestServicesPage(t *testing.T) {
	srv := setup(t)
	body := get(t, srv.URL+"/services")
	if !strings.Contains(body, "wiki") || !strings.Contains(body, "{tw}") {
		t.Errorf("services page: %s", body)
	}
}

func TestSegmentsPage(t *testing.T) {
	srv := setup(t)
	body := get(t, srv.URL+"/segments")
	if !strings.Contains(body, "wiki/guide#p0") || !strings.Contains(body, "hashes") {
		t.Errorf("segments page: %s", body)
	}
	if !strings.Contains(body, "0.50") {
		t.Errorf("threshold missing: %s", body)
	}
}

func TestAuditPageEscapesHTML(t *testing.T) {
	srv := setup(t)
	body := get(t, srv.URL+"/audit")
	if !strings.Contains(body, "suppress") || !strings.Contains(body, "alice") {
		t.Errorf("audit page: %s", body)
	}
	if strings.Contains(body, "<script>") {
		t.Error("justification not escaped")
	}
}

func TestNotFound(t *testing.T) {
	srv := setup(t)
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status=%d, want 404", resp.StatusCode)
	}
}
