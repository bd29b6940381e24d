package node

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/tagserver"
)

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

	// One enforcing node, the sole partition of its ring, for all
	// executions, as a live node has one state.
	node := newCluster(f).open("node", Config{PolicyPath: writePolicy(f, "enforcing"),
		RingFile: writeRing(f, partition.SingleRing("p0", "http://node")), PartitionID: "p0"}).Handler()
	f.Fuzz(func(t *testing.T, ep uint8, body []byte, trace string) {
		path := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		in := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		in.Header.Set(obs.TraceHeader, trace)
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, in)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500: %s", path, body, rec.Body)
		}
		if path != "/v1/part/query" || rec.Code != http.StatusOK {
			return
		}
		var req tagserver.PartQueryRequest
		var got policy.PartResolve
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the handler cannot have decoded: %v", err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		valid := func(i int) bool { return i >= 0 && i < len(req.Hashes) }
		for _, o := range got.Oldest {
			if !valid(o.Idx) {
				t.Fatalf("%q: oldest index %d of %d hashes", body, o.Idx, len(req.Hashes))
			}
		}
		for _, c := range got.Cands {
			for _, i := range c.Overlap {
				if !valid(i) {
					t.Fatalf("%q: overlap index %d of %d hashes", body, i, len(req.Hashes))
				}
			}
		}
	})
}
