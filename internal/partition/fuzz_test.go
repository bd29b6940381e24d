package partition_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/tagserver"
)

// routerEndpoints are the routing tier's POST endpoints, in the order
// FuzzRouterRequests' endpoint byte picks them.
var routerEndpoints = []string{
	"/v1/observe", "/v1/observe/batch", "/v1/check", "/v1/upload", "/v1/suppress",
}

// FuzzRouterRequests throws arbitrary bodies at the device-facing
// endpoints of a two-partition cluster's routing tier. The contract under
// test: never panic and never answer 5xx — the nodes behind it are
// healthy, so a 5xx could only be a malformed body reaching a leg the
// tier should have refused — and answer 413 to a body whose JSON runs
// past tagserver.DefaultMaxBodyBytes, as a node does. Seeds are one valid
// body per endpoint, a check with unsorted duplicate hashes, a truncated
// body and an oversized check.
func FuzzRouterRequests(f *testing.F) {
	seeds := []string{
		`{"service":"wiki","seg":"wiki/plan#p0","hashes":[1,2,3,4,5]}`,
		`{"service":"docs","items":[{"seg":"docs/a#p0","hashes":[1,2,3]},{"seg":"docs/a","hashes":[4,5],"granularity":"document"}]}`,
		`{"dest":"docs","hashes":[1,2,3,4,5]}`,
		`{"seg":"wiki/plan#p0","dest":"docs"}`,
		`{"user":"alice","seg":"wiki/plan#p0","tag":"tw","justification":"published"}`,
	}
	for i, body := range seeds {
		f.Add(uint8(i), []byte(body))
	}
	f.Add(uint8(2), []byte(`{"dest":"docs","hashes":[5,4,3,3,2,1]}`))
	f.Add(uint8(0), []byte(`{"service":"wiki","seg":"wiki/plan#p0","hashes":[1,2`))
	f.Add(uint8(2), []byte(`{"dest":"docs","hashes":[`+strings.Repeat("4294967295,", tagserver.DefaultMaxBodyBytes/11)+`1]}`))

	h := newClusterHandler(f, 2) // one cluster for all executions, as a live tier has
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := routerEndpoints[int(ep)%len(routerEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %.200q: %d: %s", path, body, rec.Code, rec.Body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var v json.RawMessage
		if dec.Decode(&v) == nil && dec.InputOffset() > tagserver.DefaultMaxBodyBytes && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte JSON body answered %d, want 413", path, dec.InputOffset(), rec.Code)
		}
	})
}
