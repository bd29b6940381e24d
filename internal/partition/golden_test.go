package partition_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/node"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
)

// The golden suite holds the partitioned cluster to its core contract:
// for the same request script, a 2- or 3-partition cluster behind the
// routing tier answers with bytes identical to a single node. Three
// scripts model the seed web-app scenarios: a wiki->docs paste (Dpar
// violation), an itool->notes copy with a declassification, and
// document-granularity edit tracking (Ddoc). Two more rewrite a source
// on one partition while the copy is homed on another: a rewritten source
// no longer discloses its old text, whether the copy is new or a
// re-observation of one the home decided before.

// op is one scripted wire request.
type op struct {
	kind    string // observe, batch, check, oversized, suppress, upload, label
	service string
	seg     string
	text    string
	texts   []string // batch: one per item, segs derived
	dest    string
	user    string
	tag     string
	why     string
	gran    string
	size    int // oversized: approximate body bytes
}

// The scripts use enough distinct segments that an even 2- or 3-way
// keyspace split places origins and destinations on different
// partitions (asserted in TestGoldenScriptsSpanPartitions).
const (
	wikiPlan   = "The 2027 acquisition plan targets Initech for three hundred million dollars pending diligence on their flux capacitor patents and the retention of their core engineering group."
	wikiBudget = "Quarterly budget review: the platform group is over plan by twelve percent, driven by the new datacenter lease and unbudgeted compliance tooling for the audit."
	iToolPerf  = "Performance review draft for the infrastructure team lead: exceeds expectations on incident response, needs development on cross-team communication and delegation."
	docsIntro  = "This public engineering blog post describes our migration to an incremental winnowing pipeline and the throughput lessons we learned along the way."
)

func scripts() map[string][]op {
	return map[string][]op{
		// A user pastes confidential wiki content into a public docs page:
		// the observe on the docs segment must attribute the wiki origin
		// and flag the release.
		"wiki-paste": {
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: wikiPlan},
			{kind: "observe", service: "wiki", seg: "wiki/budget#p0", text: wikiBudget},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p0", text: docsIntro},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: wikiPlan},
			{kind: "check", dest: "docs", text: wikiPlan},
			{kind: "check", dest: "docs", text: docsIntro},
			{kind: "label", seg: "docs/blog-draft#p1"},
			{kind: "upload", seg: "docs/blog-draft#p1", dest: "docs"},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: wikiPlan}, // re-observe, unchanged
			// Past the node's body bound: refused with the node's 413 by
			// the tier's front door too, whether or not the legs it would
			// have been split into each fit (1.5 MB used to be answered
			// 200 allow) and above the tier's old private 8 MiB bound (400).
			{kind: "oversized", dest: "docs", size: 3 << 19},
			{kind: "oversized", dest: "docs", size: 9 << 20},
		},
		// An itool performance review is copied into notes; after a
		// manager suppresses the tag with justification, the release
		// check relaxes.
		"itool-notes": {
			{kind: "observe", service: "itool", seg: "itool/reviews#p0", text: iToolPerf},
			{kind: "observe", service: "notes", seg: "notes/todo#p0", text: iToolPerf},
			{kind: "label", seg: "notes/todo#p0"},
			{kind: "upload", seg: "notes/todo#p0", dest: "notes"},
			{kind: "suppress", user: "alice", seg: "itool/reviews#p0", tag: "ti", why: "review published"},
			{kind: "label", seg: "itool/reviews#p0"},
			{kind: "upload", seg: "itool/reviews#p0", dest: "notes"},
		},
		// The source is rewritten before the copy is observed: it still
		// holds the oldest postings of its first text, but its fingerprint
		// no longer has them, so the copy discloses nothing.
		"source-rewritten": {
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: wikiPlan},
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: wikiBudget},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: wikiPlan},
			{kind: "label", seg: "docs/blog-draft#p1"},
		},
		// The copy is observed, the source rewritten, and the copy
		// re-observed unchanged: its home's decision from before the edit
		// must not answer.
		"source-edit": {
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: wikiPlan},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: wikiPlan},
			{kind: "label", seg: "docs/blog-draft#p1"},
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: wikiBudget},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: wikiPlan},
			{kind: "label", seg: "docs/blog-draft#p1"},
		},
		// Document-granularity tracking across edits, flushed as batches
		// the way the extension ships coalesced DOM mutations.
		"docs-edits": {
			{kind: "observe", service: "wiki", seg: "wiki/roadmap", text: wikiPlan + " " + wikiBudget, gran: "document"},
			{kind: "batch", service: "docs", texts: []string{docsIntro, wikiBudget}, gran: "document"},
			{kind: "observe", service: "docs", seg: "docs/summary", text: wikiPlan + " " + docsIntro, gran: "document"},
			{kind: "check", dest: "docs", text: wikiBudget},
			{kind: "label", seg: "docs/summary"},
		},
	}
}

// writePolicy writes the fixture policy: wiki and itool are confidential
// origins, docs and notes are public destinations.
func writePolicy(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.json")
	policy := `{"mode":"enforcing","services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},` +
		`{"name":"itool","privilege":["ti"],"confidentiality":["ti"]},{"name":"docs"},{"name":"notes"}]}`
	if err := os.WriteFile(path, []byte(policy), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// openNode opens a memory-only node on policy, as partition id of ring
// when ring is set.
func openNode(t testing.TB, policy string, ring *partition.Ring, id string) http.Handler {
	t.Helper()
	cfg := node.Config{PolicyPath: policy}
	if ring != nil {
		cfg.RingFile, cfg.PartitionID = filepath.Join(t.TempDir(), "ring"), id
		if err := partition.SaveRingFile(cfg.RingFile, ring); err != nil {
			t.Fatal(err)
		}
	}
	n, err := node.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(context.Background()) }) //nolint:errcheck
	return n.Handler()
}

// evenRing splits the keyspace into p equal inclusive ranges.
func evenRing(t testing.TB, urls []string) *partition.Ring {
	t.Helper()
	p := len(urls)
	width := uint64(math.MaxUint32+1) / uint64(p)
	ring := &partition.Ring{Version: 1}
	for i := 0; i < p; i++ {
		lo := uint32(uint64(i) * width)
		hi := uint32(math.MaxUint32)
		if i < p-1 {
			hi = uint32(uint64(i+1)*width - 1)
		}
		ring.Partitions = append(ring.Partitions, partition.Partition{
			ID: fmt.Sprintf("p%d", i), Lo: lo, Hi: hi, Nodes: []string{urls[i]},
		})
	}
	if err := ring.Validate(); err != nil {
		t.Fatal(err)
	}
	return ring
}

// startCluster brings up p partition nodes plus a routing tier over
// them, returning the router front's base URL.
func startCluster(t *testing.T, p int) string {
	t.Helper()
	front := httptest.NewServer(newClusterHandler(t, p))
	t.Cleanup(front.Close)
	return front.URL
}

// newClusterHandler brings up p partition nodes, reached over an
// in-memory transport, and returns the routing tier's handler over them.
func newClusterHandler(t testing.TB, p int) http.Handler {
	t.Helper()
	urls := make([]string, p)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://p%d", i)
	}
	ring, policy, hosts := evenRing(t, urls), writePolicy(t), faultinject.NewHosts()
	for _, part := range ring.Partitions {
		hosts.Handle(part.ID, openNode(t, policy, ring, part.ID))
	}
	rt, err := partition.NewRouter(ring, partition.RouterOptions{
		FP:            fingerprint.DefaultConfig(),
		ClientOptions: []tagserver.ClientOption{tagserver.WithTransport(hosts)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Prime(t.Context())
	return partition.NewHandler(rt)
}

// startSingle brings up the single-node reference.
func startSingle(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(openNode(t, writePolicy(t), nil, ""))
	t.Cleanup(srv.Close)
	return srv.URL
}

// hashesOf fingerprints text with the shared config.
func hashesOf(t *testing.T, text string) []uint32 {
	t.Helper()
	fp, err := fingerprint.Compute(text, fingerprint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Empty() {
		t.Fatalf("fingerprint of %q is empty; lengthen the fixture text", text[:20])
	}
	return fp.Hashes()
}

// play executes one op against base and returns "status\nbody".
func play(t *testing.T, base string, o op) string {
	t.Helper()
	var (
		path    string
		payload interface{}
		data    []byte
	)
	switch o.kind {
	case "observe":
		path = "/v1/observe"
		payload = tagserver.ObserveRequest{Device: "golden", Service: o.service, Seg: segment.ID(o.seg), Hashes: hashesOf(t, o.text), Granularity: o.gran}
	case "batch":
		path = "/v1/observe/batch"
		items := make([]tagserver.BatchObserveItem, len(o.texts))
		for i, text := range o.texts {
			items[i] = tagserver.BatchObserveItem{
				Seg:         segment.ID(fmt.Sprintf("docs/batch#p%d", i)),
				Hashes:      hashesOf(t, text),
				Granularity: o.gran,
			}
		}
		payload = tagserver.BatchObserveRequest{Device: "golden", Service: o.service, Items: items}
	case "check":
		path = "/v1/check"
		payload = tagserver.CheckRequest{Device: "golden", Dest: o.dest, Hashes: hashesOf(t, o.text)}
	case "oversized":
		path = "/v1/check"
		data = []byte(`{"device":"golden","dest":"` + o.dest + `","hashes":[` + strings.Repeat("4294967295,", o.size/11) + `1]}`)
	case "suppress":
		path = "/v1/suppress"
		payload = tagserver.SuppressRequest{User: o.user, Seg: segment.ID(o.seg), Tag: tdm.Tag(o.tag), Justification: o.why}
	case "upload":
		path = "/v1/upload"
		payload = tagserver.UploadRequest{Device: "golden", Seg: segment.ID(o.seg), Dest: o.dest}
	case "label":
		resp, err := http.Get(base + "/v1/label?seg=" + url.QueryEscape(o.seg))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return fmt.Sprintf("%d\n%s", resp.StatusCode, body)
	default:
		t.Fatalf("unknown op kind %q", o.kind)
	}
	if data == nil {
		var err error
		if data, err = json.Marshal(payload); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return fmt.Sprintf("%d\n%s", resp.StatusCode, body)
}

// TestGoldenPartitionedVerdicts replays each scenario against a single
// node and against 2- and 3-partition clusters, requiring byte-identical
// responses at every step.
func TestGoldenPartitionedVerdicts(t *testing.T) {
	for name, script := range scripts() {
		t.Run(name, func(t *testing.T) {
			single := startSingle(t)
			want := make([]string, len(script))
			for i, o := range script {
				want[i] = play(t, single, o)
			}
			for _, p := range []int{2, 3} {
				t.Run(fmt.Sprintf("partitions=%d", p), func(t *testing.T) {
					front := startCluster(t, p)
					for i, o := range script {
						got := play(t, front, o)
						if got != want[i] {
							t.Errorf("step %d (%s %s%s): partitioned response diverged\nsingle:      %q\npartitioned: %q",
								i, o.kind, o.seg, o.dest, want[i], got)
						}
					}
				})
			}
		})
	}
}

// TestPrimeFoldsBothGranularityClocks holds Prime to the
// stamps-ahead-of-cluster invariant for both clock families: paragraph
// and document observations advance independent logical clocks, and a
// restarted router that folded only one could stamp behind the other,
// breaking deterministic replay.
func TestPrimeFoldsBothGranularityClocks(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[string]bool{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/part/query" {
			http.NotFound(w, r)
			return
		}
		var req tagserver.PartQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[req.Granularity] = true
		mu.Unlock()
		clock := uint64(5)
		if req.Granularity == "document" {
			clock = 9
		}
		json.NewEncoder(w).Encode(policy.PartResolve{Clock: clock}) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)

	rt, err := partition.NewRouter(partition.SingleRing("p0", srv.URL), partition.RouterOptions{FP: fingerprint.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Prime(t.Context())

	mu.Lock()
	defer mu.Unlock()
	if !seen["paragraph"] || !seen["document"] {
		t.Fatalf("Prime queried granularities %v, want both paragraph and document", seen)
	}
	if got := rt.Clock(); got < 9 {
		t.Fatalf("primed clock = %d, want >= 9 (the document clock)", got)
	}
}

// TestGoldenScriptsSpanPartitions pins the fixtures to actually exercise
// cross-partition resolution: under an even 2-way split, the scripted
// segments must not all land on one partition.
func TestGoldenScriptsSpanPartitions(t *testing.T) {
	ring := evenRing(t, []string{"http://a", "http://b"})
	seen := map[string]bool{}
	for _, script := range scripts() {
		for _, o := range script {
			if o.seg == "" {
				continue
			}
			home, ok := ring.Home(segment.ID(o.seg))
			if !ok {
				t.Fatalf("no home for %s", o.seg)
			}
			seen[home.ID] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("all scripted segments land on one partition (%v); rename fixtures so the scripts cross partitions", seen)
	}
}
