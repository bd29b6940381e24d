package node

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

// TestDashboardOnDebugHandler fetches every dashboard page from the debug
// handler while observes of monitored text run (the race detector watches
// the reads), and requires that no page ever shows the text: sizes,
// labels and the audit trail, never content.
func TestDashboardOnDebugHandler(t *testing.T) {
	n := newCluster(t).open("node", Config{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				text := fmt.Sprintf("confidential quokka%d memo %d on the merger terms that must not leave the wiki", w, i)
				if _, err := n.mw.Engine().ObserveEdit(segment.ID(fmt.Sprintf("wiki/w%d#p%d", w, i%4)), "wiki", text); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	fetch := func(path string) string {
		rec := httptest.NewRecorder()
		n.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if body := rec.Body.String(); strings.Contains(body, "quokka") || strings.Contains(body, "merger terms") {
			t.Fatalf("GET %s shows monitored text:\n%s", path, body)
		}
		return rec.Body.String()
	}
	pages := []string{"/dashboard/", "/dashboard/services", "/dashboard/segments", "/dashboard/audit", "/v1/metrics"}
	for round := 0; round < 10; round++ {
		for _, p := range pages {
			fetch(p)
		}
	}
	wg.Wait()
	if got := fetch("/dashboard/segments"); !strings.Contains(got, "wiki/w0#p0") {
		t.Errorf("segments page after the writes does not list wiki/w0#p0:\n%s", got)
	}
}
