package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
)

// partNode is one daemon in the partitioned chaos cluster.
type partNode struct {
	addr, base string
	walDir     string
	ringPath   string
	args       []string
	proc       *exec.Cmd
}

// newPartNode allocates an address and directories for one cluster
// member; each node keeps its own ring-file copy because SetRing
// persists the flip in place.
func newPartNode(t *testing.T, dir, name string, ring *partition.Ring) *partNode {
	t.Helper()
	n := &partNode{
		addr:     freeAddr(t),
		walDir:   filepath.Join(dir, name),
		ringPath: filepath.Join(dir, name+".ring"),
	}
	n.base = "http://" + n.addr
	if err := partition.SaveRingFile(n.ringPath, ring); err != nil {
		t.Fatal(err)
	}
	return n
}

func (n *partNode) start(t *testing.T, policyPath, partitionID string, extra ...string) {
	t.Helper()
	n.args = append([]string{
		"-policy", policyPath, "-addr", n.addr, "-advertise", n.base,
		"-wal-dir", n.walDir, "-fsync", "always",
		"-ring-file", n.ringPath, "-partition-id", partitionID,
	}, extra...)
	n.proc = startDaemon(t, n.args...)
	waitHealthy(t, n.base)
}

func (n *partNode) kill(t *testing.T) {
	t.Helper()
	if err := n.proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	n.proc.Wait()
}

// restart relaunches the node with the args of its last start.
func (n *partNode) restart(t *testing.T) {
	t.Helper()
	n.proc = startDaemon(t, n.args...)
	waitHealthy(t, n.base)
}

// waitCaughtUp blocks until every listed replica is connected with zero lag,
// so read-path comparisons against the single-node reference are
// deterministic.
func waitCaughtUp(t *testing.T, bases ...string) {
	t.Helper()
	for _, base := range bases {
		waitRepl(t, base, "catch up", func(m map[string]any) bool {
			connected, _ := m["connected"].(bool)
			lag, _ := m["lag_records"].(float64)
			return connected && lag == 0
		})
	}
}

// chaosOp is one wire request mirrored to the reference node and the
// partitioned cluster.
type chaosOp struct {
	method, path, body string
}

func observeOp(service string, seg segment.ID, hashes []uint32) chaosOp {
	b, _ := json.Marshal(tagserver.ObserveRequest{Device: "chaos", Service: service, Seg: seg, Hashes: hashes})
	return chaosOp{"POST", "/v1/observe", string(b)}
}

func checkOp(dest string, hashes []uint32) chaosOp {
	b, _ := json.Marshal(tagserver.CheckRequest{Device: "chaos", Dest: dest, Hashes: hashes})
	return chaosOp{"POST", "/v1/check", string(b)}
}

func suppressOp(seg segment.ID, tag string) chaosOp {
	b, _ := json.Marshal(map[string]string{"user": "alice", "seg": string(seg), "tag": tag, "justification": "reviewed"})
	return chaosOp{"POST", "/v1/suppress", string(b)}
}

func uploadOp(seg segment.ID, dest string) chaosOp {
	b, _ := json.Marshal(tagserver.UploadRequest{Device: "chaos", Seg: seg, Dest: dest})
	return chaosOp{"POST", "/v1/upload", string(b)}
}

func labelOp(seg segment.ID) chaosOp {
	return chaosOp{"GET", "/v1/label?seg=" + url.QueryEscape(string(seg)), ""}
}

// playOp sends the op and returns "status\nbody".
func playOp(t *testing.T, base string, o chaosOp) string {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if o.method == "GET" {
		resp, err = http.Get(base + o.path)
	} else {
		resp, err = http.Post(base+o.path, "application/json", bytes.NewReader([]byte(o.body)))
	}
	if err != nil {
		t.Fatalf("%s %s against %s: %v", o.method, o.path, base, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return fmt.Sprintf("%d\n%s", resp.StatusCode, buf.String())
}

// mirror drives the ops against both deployments and fails on any
// byte divergence.
func mirror(t *testing.T, single, front, phase string, ops []chaosOp) {
	t.Helper()
	for i, o := range ops {
		want := playOp(t, single, o)
		got := playOp(t, front, o)
		if got != want {
			t.Fatalf("%s op %d (%s %s): partitioned cluster diverged\nsingle:      %q\npartitioned: %q",
				phase, i, o.method, o.path, want, got)
		}
	}
}

// hashesFor fingerprints text like the extension would.
func hashesFor(t *testing.T, text string) []uint32 {
	t.Helper()
	fp, err := fingerprint.Compute(text, fingerprint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fp.Hashes()
}

// segInRange finds a segment name with the given prefix whose placement
// key falls inside [lo, hi].
func segInRange(t *testing.T, prefix string, lo, hi uint32) segment.ID {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		seg := segment.ID(fmt.Sprintf("%s%d#p0", prefix, i))
		if k := segment.Key(seg); k >= lo && k <= hi {
			return seg
		}
	}
	t.Fatalf("no %s* segment keys in [%d, %d]", prefix, lo, hi)
	return ""
}

// TestPartitionChaos is the acceptance run for the partitioned cluster,
// against real bftagd subprocesses at fsync=always:
//
//  1. three partition groups (primary + replica each) come up under ring
//     v1; a routing tier spans them and a plain single node serves as the
//     behavioural reference;
//  2. a mixed workload (confidential observes, cross-partition pastes,
//     release checks, suppressions, uploads, label reads) produces
//     byte-identical responses from the cluster and the reference;
//  3. partition p1's primary dies by SIGKILL; its caught-up replica is
//     promoted and the old primary, restarted, is fenced — the tier keeps
//     answering identically with zero acked-write loss;
//  4. p2 is split live: a filtered replica mirrors only the moving key
//     range, is SIGKILLed mid-bootstrap and resumes from its local WAL;
//     ring v2 flips on the source first (fencing the moved range while
//     the mirror still runs), the caught-up target is promoted and the
//     moved range pruned — the tier follows the 421 ring redirect on its
//     own;
//  5. after the dust settles, verdicts still match byte-for-byte and the
//     per-partition segment counts sum to the reference's.
func TestPartitionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess end-to-end test")
	}
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)

	// Reference single node.
	singleAddr := freeAddr(t)
	singleBase := "http://" + singleAddr
	startDaemon(t, "-policy", policyPath, "-addr", singleAddr, "-advertise", singleBase,
		"-wal-dir", filepath.Join(dir, "single"), "-fsync", "always")
	waitHealthy(t, singleBase)

	// (1) Three partitions, two nodes each, even keyspace thirds. Node
	// addresses must be in the ring before the daemons load it, so
	// allocate first, then write each node's ring copy.
	type group struct{ primary, replica *partNode }
	groups := make([]group, 3)
	bases := make([][]string, 3)
	for i := range groups {
		groups[i] = group{
			primary: &partNode{addr: freeAddr(t)},
			replica: &partNode{addr: freeAddr(t)},
		}
		groups[i].primary.base = "http://" + groups[i].primary.addr
		groups[i].replica.base = "http://" + groups[i].replica.addr
		bases[i] = []string{groups[i].primary.base, groups[i].replica.base}
	}
	width := uint64(math.MaxUint32+1) / 3
	ring := &partition.Ring{Version: 1}
	for i := 0; i < 3; i++ {
		lo := uint32(uint64(i) * width)
		hi := uint32(math.MaxUint32)
		if i < 2 {
			hi = uint32(uint64(i+1)*width - 1)
		}
		ring.Partitions = append(ring.Partitions, partition.Partition{
			ID: fmt.Sprintf("p%d", i), Lo: lo, Hi: hi, Nodes: bases[i],
		})
	}
	if err := ring.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		id := fmt.Sprintf("p%d", i)
		for role, n := range map[string]*partNode{"primary": g.primary, "replica": g.replica} {
			n.walDir = filepath.Join(dir, id+"-"+role)
			n.ringPath = filepath.Join(dir, id+"-"+role+".ring")
			if err := partition.SaveRingFile(n.ringPath, ring); err != nil {
				t.Fatal(err)
			}
		}
		g.primary.start(t, policyPath, id)
		g.replica.start(t, policyPath, id, "-replica-of", g.primary.base)
	}

	// The routing tier runs in-process: same Router the bfproxy router
	// mode serves, pointed at the subprocess cluster.
	rt, err := partition.NewRouter(ring, partition.RouterOptions{FP: fingerprint.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Prime(t.Context())
	frontSrv := httptest.NewServer(partition.NewHandler(rt))
	t.Cleanup(frontSrv.Close)
	front := frontSrv.URL

	// (2) Mixed workload. Confidential wiki pages plus pad copies of the
	// same text force cross-partition resolution whenever source and
	// destination segments hash to different thirds.
	wikiSegs := make([]segment.ID, 0, 18)
	var writes, reads []chaosOp
	homes := map[string]bool{}
	for i := 0; i < 18; i++ {
		wseg := segment.ID(fmt.Sprintf("wiki/page%d#p0", i))
		pseg := segment.ID(fmt.Sprintf("pad/copy%d#p0", i))
		wikiSegs = append(wikiSegs, wseg)
		for _, seg := range []segment.ID{wseg, pseg} {
			home, ok := ring.Home(seg)
			if !ok {
				t.Fatalf("no home for %s", seg)
			}
			homes[home.ID] = true
		}
		text := sentence(i)
		writes = append(writes,
			observeOp("wiki", wseg, hashesFor(t, text)),
			observeOp("pad", pseg, hashesFor(t, text)),
			checkOp("pad", hashesFor(t, text)),
		)
		reads = append(reads, labelOp(pseg), uploadOp(pseg, "pad"))
	}
	if len(homes) != 3 {
		t.Fatalf("workload segments land on %d partitions, want all 3", len(homes))
	}
	// Suppressions are writes; the uploads that observe their effect are
	// reads, so they run after the replication barrier below (the cluster
	// serves reads from replicas, and a replica mid-catch-up would answer
	// with the pre-suppression label).
	for i := 0; i < 6; i++ {
		writes = append(writes, suppressOp(wikiSegs[i], "tw"))
		reads = append(reads, labelOp(wikiSegs[i]), uploadOp(wikiSegs[i], "pad"))
	}
	mirror(t, singleBase, front, "initial writes", writes)
	waitCaughtUp(t, groups[0].replica.base, groups[1].replica.base, groups[2].replica.base)
	mirror(t, singleBase, front, "initial reads", reads)

	// Probe the cluster must keep answering identically across failures.
	probe := checkOp("pad", hashesFor(t, sentence(3)))
	wantProbe := playOp(t, singleBase, probe)
	if got := playOp(t, front, probe); got != wantProbe {
		t.Fatalf("probe before chaos: got %q want %q", got, wantProbe)
	}

	// (3) Kill p1's primary. Its replica is caught up (barrier above), so
	// promotion loses nothing; the restarted old primary is fenced with
	// the new term and the tier's cluster client follows the 421 chain.
	groups[1].primary.kill(t)
	presp, err := http.Post(groups[1].replica.base+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if promoted.Role != "primary" || promoted.Term == 0 {
		t.Fatalf("promote p1 replica = %+v, want primary with bumped term", promoted)
	}
	groups[1].primary.restart(t)
	fence, _ := json.Marshal(map[string]any{"term": promoted.Term, "primary": groups[1].replica.base})
	if status, body := postJSON(t, groups[1].primary.base+"/v1/repl/fence", string(fence)); status != http.StatusOK {
		t.Fatalf("fence old p1 primary: %d %s", status, body)
	}

	// Zero acked-write loss: the probe answers exactly as before the kill,
	// and new writes (some homed on p1) keep matching the reference.
	if got := playOp(t, front, probe); got != wantProbe {
		t.Fatalf("probe after p1 failover: got %q want %q (acked writes lost?)", got, wantProbe)
	}
	var postFailover []chaosOp
	for i := 18; i < 30; i++ {
		text := sentence(i)
		postFailover = append(postFailover,
			observeOp("wiki", segment.ID(fmt.Sprintf("wiki/page%d#p0", i)), hashesFor(t, text)),
			observeOp("pad", segment.ID(fmt.Sprintf("pad/copy%d#p0", i)), hashesFor(t, text)),
			checkOp("pad", hashesFor(t, text)),
		)
	}
	mirror(t, singleBase, front, "post-failover", postFailover)

	// (4) Live split of p2: the top half of its range moves to p3.
	src := ring.Partitions[2]
	at := src.Lo + (src.Hi-src.Lo)/2
	target := newPartNode(t, dir, "p3-target", ring)
	target.start(t, policyPath, "p3",
		"-replica-of", groups[2].primary.base,
		"-split-range", fmt.Sprintf("%d:%d", at+1, src.Hi))
	// Mid-split SIGKILL: once the filtered mirror has applied something,
	// destroy it. The restart must recover through the same key range
	// (out-of-range WAL records skipped) and resume, not diverge.
	waitRepl(t, target.base, "filtered bootstrap", func(m map[string]any) bool {
		connected, _ := m["connected"].(bool)
		lag, _ := m["lag_records"].(float64)
		return connected && lag == 0
	})
	target.kill(t)
	var midSplit []chaosOp
	for i := 30; i < 40; i++ {
		text := sentence(i)
		midSplit = append(midSplit,
			observeOp("wiki", segment.ID(fmt.Sprintf("wiki/page%d#p0", i)), hashesFor(t, text)),
			checkOp("pad", hashesFor(t, text)),
		)
	}
	mirror(t, singleBase, front, "mid-split", midSplit)
	target.restart(t)
	waitCaughtUp(t, target.base)

	// Complete the split the way bfctl split does: flip the ring on the
	// source FIRST, while the target is still mirroring — from then on
	// the source 421s writes for the moved range, so none can be acked
	// there that the target's stopped mirror would miss — wait for the
	// target to cover the source's frozen high-water mark, promote it,
	// flip the rest of the cluster, then prune the moved range.
	next, err := partition.SplitRing(ring, "p2", at, "p3", []string{target.base})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := partition.EncodeRing(next)
	if err != nil {
		t.Fatal(err)
	}
	installRing := func(base string) (int, []byte) {
		resp, err := http.Post(base+"/v1/part/ring", "application/octet-stream", bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("install ring on %s: %v", base, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	if status, body := installRing(groups[2].primary.base); status != http.StatusOK {
		t.Fatalf("install ring v2 on split source: %d %s", status, body)
	}
	waitCaughtUp(t, target.base)
	if status, body := postJSON(t, target.base+"/v1/repl/promote", "application/json"); status != http.StatusOK {
		t.Fatalf("promote split target: %d %s", status, body)
	}
	for _, base := range []string{
		groups[0].primary.base, groups[0].replica.base,
		groups[1].primary.base, groups[1].replica.base,
		groups[2].replica.base, target.base,
	} {
		if status, body := installRing(base); status != http.StatusOK {
			t.Fatalf("install ring v2 on %s: %d %s", base, status, body)
		}
	}
	pruneBody, _ := json.Marshal(map[string]uint32{"lo": at + 1, "hi": src.Hi})
	if status, body := postJSON(t, groups[2].primary.base+"/v1/part/prune", string(pruneBody)); status != http.StatusOK {
		t.Fatalf("prune moved range: %d %s", status, body)
	}

	// (5) The router still holds ring v1; a write homed in the moved range
	// hits the old source, gets the 421 ring redirect, refreshes, and
	// lands on p3 — byte-identical to the reference throughout.
	movedSeg := segInRange(t, "wiki/moved", at+1, src.Hi)
	var postSplit []chaosOp
	postSplit = append(postSplit,
		observeOp("wiki", movedSeg, hashesFor(t, sentence(50))),
		observeOp("pad", segInRange(t, "pad/moved", at+1, src.Hi), hashesFor(t, sentence(50))),
		checkOp("pad", hashesFor(t, sentence(50))),
	)
	for i := 40; i < 46; i++ {
		text := sentence(i)
		postSplit = append(postSplit,
			observeOp("wiki", segment.ID(fmt.Sprintf("wiki/page%d#p0", i)), hashesFor(t, text)),
			checkOp("pad", hashesFor(t, text)),
		)
	}
	mirror(t, singleBase, front, "post-split", postSplit)
	if v := rt.Ring().Version; v != next.Version {
		t.Fatalf("router still on ring v%d after redirect, want v%d", v, next.Version)
	}
	if got := playOp(t, front, probe); got != wantProbe {
		t.Fatalf("probe after split: got %q want %q", got, wantProbe)
	}

	// Segment counts: every segment lives on exactly one partition, so the
	// cluster total must equal the reference's.
	segCount := func(base string) float64 {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Segments float64 `json:"segments"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Segments
	}
	if got, want := segCount(front), segCount(singleBase); got != want {
		t.Errorf("cluster segment total = %v, reference = %v", got, want)
	}
}
