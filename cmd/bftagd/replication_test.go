package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/resilience"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/wal"
)

// startDaemon launches the test binary as a real bftagd subprocess via
// the BFTAGD_TEST_ARGS re-exec shim, so it can be destroyed with SIGKILL.
func startDaemon(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BFTAGD_TEST_ARGS="+strings.Join(args, "\n"))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// replHealth returns the replication block of a node's /healthz.
func replHealth(t *testing.T, base string) map[string]any {
	t.Helper()
	h := getHealth(t, base)
	repl, ok := h["replication"].(map[string]any)
	if !ok {
		t.Fatalf("healthz %s has no replication block: %v", base, h)
	}
	return repl
}

// waitRepl polls a node's replication health until cond accepts it.
func waitRepl(t *testing.T, base, what string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var h map[string]any
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil {
				if repl, ok := h["replication"].(map[string]any); ok {
					last = repl
					if cond(repl) {
						return repl
					}
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s: %s never happened; last replication health: %v", base, what, last)
	return nil
}

// assertWALPrefix verifies the literal byte-prefix property: every WAL
// segment file the replica mirrored is a byte-for-byte prefix of the
// primary's file of the same name.
func assertWALPrefix(t *testing.T, primaryDir, replicaDir string) {
	t.Helper()
	entries, err := os.ReadDir(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		if _, ok := wal.ParseSegmentName(e.Name()); !ok {
			continue
		}
		got, err := os.ReadFile(filepath.Join(replicaDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(primaryDir, e.Name()))
		if err != nil {
			t.Fatalf("replica has %s but primary does not: %v", e.Name(), err)
		}
		if len(got) > len(want) || !bytes.Equal(got, want[:len(got)]) {
			t.Fatalf("replica %s is not a byte prefix of the primary's (replica %d bytes, primary %d bytes)",
				e.Name(), len(got), len(want))
		}
		compared++
	}
	if compared == 0 {
		t.Fatalf("replica dir %s mirrored no WAL segments", replicaDir)
	}
}

// sentence builds a deterministic paragraph long enough to fingerprint.
func sentence(i int) string {
	return fmt.Sprintf("revision %d of the quarterly capacity planning forecast "+
		"covering datacenter utilisation and the migration schedule for cohort %d",
		i, i%7)
}

// TestReplicationEndToEnd is the acceptance run for the replicated
// deployment, against real bftagd subprocesses at fsync=always:
//
//  1. a primary and two replicas come up; replicas report role, term and
//     lag on /healthz;
//  2. over a thousand mixed mutations are driven through a chaos
//     transport (connection errors + ambiguous reset-after-delivery);
//     retries ride the Idempotency-Key so every mutation is acked exactly
//     once;
//  3. both replicas converge to the primary's exact WAL position and
//     their mirrored segments are literal byte prefixes of the primary's;
//  4. replicas serve reads (identical verdicts) and fence writes: a
//     client addressed to a replica follows its 421 to the primary;
//  5. a replica killed with SIGKILL resumes from its local mirror without
//     re-bootstrapping;
//  6. the primary is killed, a caught-up replica is promoted (term 1) and
//     serves every acked write — zero acked-write loss — under the storage
//     policy the killed primary ran (same flags, so same disk-fault
//     policy, and the scrubber keeps running);
//  7. the deposed primary restarts, is fenced, and redirects writes; a
//     client over the dead topology's node list fails over on its own.
func TestReplicationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess end-to-end test")
	}
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)
	primaryWAL := filepath.Join(dir, "primary")
	r1WAL := filepath.Join(dir, "replica1")
	r2WAL := filepath.Join(dir, "replica2")

	primaryAddr := freeAddr(t)
	r1Addr := freeAddr(t)
	r2Addr := freeAddr(t)
	primaryBase := "http://" + primaryAddr
	r1Base := "http://" + r1Addr
	r2Base := "http://" + r2Addr

	primaryArgs := []string{
		"-policy", policyPath, "-addr", primaryAddr, "-advertise", primaryBase,
		"-wal-dir", primaryWAL, "-fsync", "always", "-checkpoint-every", "0",
		"-scrub-every", "200ms",
	}
	replicaArgs := func(addr, base, walDir string) []string {
		return []string{
			"-policy", policyPath, "-addr", addr, "-advertise", base,
			"-wal-dir", walDir, "-fsync", "always",
			"-scrub-every", "200ms",
			"-replica-of", primaryBase,
		}
	}

	primaryProc := startDaemon(t, primaryArgs...)
	waitHealthy(t, primaryBase)
	r1Proc := startDaemon(t, replicaArgs(r1Addr, r1Base, r1WAL)...)
	r2Proc := startDaemon(t, replicaArgs(r2Addr, r2Base, r2WAL)...)
	_ = r1Proc
	waitHealthy(t, r1Base)
	waitHealthy(t, r2Base)

	// (1) Replicas advertise their cluster position on /healthz.
	for _, base := range []string{r1Base, r2Base} {
		repl := waitRepl(t, base, "bootstrap + first stream", func(m map[string]any) bool {
			connected, _ := m["connected"].(bool)
			return connected
		})
		if role, _ := repl["role"].(string); role != "replica" {
			t.Fatalf("%s role = %q, want replica", base, repl["role"])
		}
		if _, ok := repl["term"]; !ok {
			t.Fatalf("%s replication health has no term: %v", base, repl)
		}
		if _, ok := repl["lag_records"]; !ok {
			t.Fatalf("%s replication health has no lag_records: %v", base, repl)
		}
	}
	if role, _ := replHealth(t, primaryBase)["role"].(string); role != "primary" {
		t.Fatalf("primary role = %q, want primary", role)
	}

	// (2) Mixed mutations through a chaos transport. Connection errors
	// are always retriable; reset-after-delivery is the ambiguous case
	// that only the Idempotency-Key makes safe to retry.
	inj := faultinject.New(http.DefaultTransport, 42)
	inj.AddRule(faultinject.Rule{Kind: faultinject.KindConnError, P: 0.05})
	inj.AddRule(faultinject.Rule{Kind: faultinject.KindResetAfterSend, P: 0.05})
	client, err := tagserver.NewClient(primaryBase, "laptop", fingerprint.DefaultConfig(),
		tagserver.WithTransport(inj),
		tagserver.WithRetry(resilience.RetryPolicy{MaxAttempts: 8, Sleep: func(time.Duration) {}}),
	)
	if err != nil {
		t.Fatal(err)
	}

	mutations := 0
	for b := 0; b < 55; b++ {
		items := make([]tagserver.BatchItem, 0, 20)
		for i := 0; i < 20; i++ {
			n := b*20 + i
			items = append(items, tagserver.BatchItem{
				Seg:  segment.ID(fmt.Sprintf("pad/doc%d#p%d", n%13, n)),
				Text: sentence(n),
			})
		}
		if _, err := client.ObserveBatch("pad", items); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		mutations += len(items)
	}
	wikiSegs := make([]segment.ID, 0, 30)
	for i := 0; i < 30; i++ {
		seg := segment.ID(fmt.Sprintf("wiki/page%d#p0", i))
		if _, err := client.Observe("wiki", seg, sentence(1000+i)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		wikiSegs = append(wikiSegs, seg)
		mutations++
	}
	for i := 0; i < 10; i++ {
		if err := client.Suppress("alice", wikiSegs[i], "tw", "reviewed"); err != nil {
			t.Fatalf("suppress %d: %v", i, err)
		}
		mutations++
	}
	if mutations < 1000 {
		t.Fatalf("drove only %d mutations, want >= 1000", mutations)
	}

	// Probe state the whole cluster must agree on.
	probe := `{"device":"d","dest":"pad","hashes":[1,2,3,4,5,6,7,8,9,10]}`
	status, wantVerdict := postJSON(t, primaryBase+"/v1/check", probe)
	if status != http.StatusOK {
		t.Fatalf("primary check: %d %s", status, wantVerdict)
	}
	primaryPos, _ := replHealth(t, primaryBase)["position"].(string)
	if primaryPos == "" {
		t.Fatal("primary reports no WAL position")
	}

	// (3) Replicas converge to the primary's exact position...
	caughtUp := func(m map[string]any) bool {
		lag, _ := m["lag_records"].(float64)
		pos, _ := m["position"].(string)
		return lag == 0 && pos == primaryPos
	}
	waitRepl(t, r1Base, "catch up to "+primaryPos, caughtUp)
	waitRepl(t, r2Base, "catch up to "+primaryPos, caughtUp)

	// ...and their mirrored logs are byte prefixes of the primary's.
	assertWALPrefix(t, primaryWAL, r1WAL)
	assertWALPrefix(t, primaryWAL, r2WAL)

	// (4) Replicas answer reads identically and fence writes: a write
	// sent to one lands on the primary through the 421.
	tracks := func(base string, seg segment.ID) bool {
		resp, err := http.Get(base + "/v1/label?seg=" + url.QueryEscape(string(seg)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	for _, base := range []string{r1Base, r2Base} {
		if _, got := postJSON(t, base+"/v1/check", probe); !bytes.Equal(got, wantVerdict) {
			t.Errorf("replica %s verdict = %s, want %s", base, got, wantVerdict)
		}
	}
	for i, base := range []string{r1Base, r2Base} {
		rclient, err := tagserver.NewClient(base, "laptop", fingerprint.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		seg := segment.ID(fmt.Sprintf("pad/redirected%d#p0", i))
		if _, err := rclient.Observe("pad", seg, sentence(9990+i)); err != nil {
			t.Fatalf("write sent to replica %s: %v", base, err)
		}
		if got := rclient.Primary(); got != primaryBase {
			t.Errorf("write sent to replica %s went to %q, want the primary %q", base, got, primaryBase)
		}
		if !tracks(primaryBase, seg) {
			t.Errorf("write sent to replica %s is not on the primary", base)
		}
	}

	// (5) SIGKILL a replica mid-life; on restart it must resume streaming
	// from its local mirror position, not re-bootstrap from a snapshot.
	if err := r2Proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	r2Proc.Wait()
	// More writes while the replica is down, so the restart has a tail to
	// stream from its resume position.
	for i := 0; i < 40; i++ {
		seg := segment.ID(fmt.Sprintf("pad/late%d#p0", i))
		if _, err := client.Observe("pad", seg, sentence(2000+i)); err != nil {
			t.Fatalf("post-kill observe %d: %v", i, err)
		}
	}
	primaryPos, _ = replHealth(t, primaryBase)["position"].(string)
	startDaemon(t, replicaArgs(r2Addr, r2Base, r2WAL)...)
	waitHealthy(t, r2Base)
	repl := waitRepl(t, r2Base, "resume + catch up to "+primaryPos, func(m map[string]any) bool {
		lag, _ := m["lag_records"].(float64)
		pos, _ := m["position"].(string)
		return lag == 0 && pos == primaryPos
	})
	if boots, _ := repl["bootstraps"].(float64); boots != 0 {
		t.Errorf("restarted replica re-bootstrapped %v times, want 0 (resume from local WAL)", boots)
	}
	assertWALPrefix(t, primaryWAL, r2WAL)
	waitRepl(t, r1Base, "catch up to "+primaryPos, func(m map[string]any) bool {
		pos, _ := m["position"].(string)
		return pos == primaryPos
	})
	status, wantVerdict = postJSON(t, primaryBase+"/v1/check", probe)
	if status != http.StatusOK {
		t.Fatalf("primary check: %d %s", status, wantVerdict)
	}

	// (6) Kill the primary outright and promote the caught-up replica 1.
	primaryStorage, ok := getHealth(t, primaryBase)["storage"].(map[string]any)
	if !ok {
		t.Fatal("primary healthz has no storage block")
	}
	if err := primaryProc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primaryProc.Wait()

	resp, err := http.Post(r1Base+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Promoted bool   `json:"promoted"`
		Role     string `json:"role"`
		Term     uint64 `json:"term"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !promoted.Promoted || promoted.Role != "primary" || promoted.Term != 1 {
		t.Fatalf("promote = %+v, want promoted primary at term 1", promoted)
	}

	// Zero acked-write loss: the promoted node answers the probe exactly
	// as the dead primary did, and accepts new writes.
	if _, got := postJSON(t, r1Base+"/v1/check", probe); !bytes.Equal(got, wantVerdict) {
		t.Errorf("new primary verdict = %s, want %s (acked writes lost?)", got, wantVerdict)
	}
	newClient, err := tagserver.NewClient(r1Base, "laptop", fingerprint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newClient.Observe("pad", "pad/after-failover#p0", sentence(3001)); err != nil {
		t.Fatalf("write on promoted primary: %v", err)
	}

	// The promoted node was started with the flags the primary had, so it
	// must run the storage policy the primary ran: same fail-open/closed
	// answer to a dead disk, and a scrubber that keeps completing passes.
	promotedStorage, ok := getHealth(t, r1Base)["storage"].(map[string]any)
	if !ok {
		t.Fatal("promoted node's healthz has no storage block")
	}
	if promotedStorage["failOpen"] != primaryStorage["failOpen"] {
		t.Errorf("promoted node failOpen = %v, the primary it replaces ran %v", promotedStorage["failOpen"], primaryStorage["failOpen"])
	}
	passes, _ := promotedStorage["scrubPasses"].(float64)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, _ := getHealth(t, r1Base)["storage"].(map[string]any)
		if now, _ := st["scrubPasses"].(float64); now > passes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promoted node never scrubs: storage = %v", st)
		}
	}

	// (7) The deposed primary restarts believing it is still primary;
	// an explicit fence (bfctl promote -old-primary does this) forces it
	// to refuse writes with a redirect to the new primary.
	startDaemon(t, primaryArgs...)
	waitHealthy(t, primaryBase)
	fence, err := json.Marshal(map[string]any{"term": promoted.Term, "primary": r1Base})
	if err != nil {
		t.Fatal(err)
	}
	fstatus, fbody := postJSON(t, primaryBase+"/v1/repl/fence", string(fence))
	_ = fence
	if fstatus != http.StatusOK {
		t.Fatalf("fence old primary: %d %s", fstatus, fbody)
	}
	if role, _ := replHealth(t, primaryBase)["role"].(string); role != "fenced" {
		t.Fatalf("old primary role = %q after fence, want fenced", role)
	}
	oldClient, err := tagserver.NewClient(primaryBase, "laptop", fingerprint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oldClient.Observe("pad", "pad/stale#p0", sentence(3002)); err != nil {
		t.Fatalf("write sent to the fenced primary: %v", err)
	}
	if got := oldClient.Primary(); got != r1Base {
		t.Errorf("fenced primary redirected the write to %q, want %q", got, r1Base)
	}
	if !tracks(r1Base, "pad/stale#p0") {
		t.Error("write sent to the fenced primary is not on the new primary")
	}

	// A client still configured for the dead topology follows the 421 to
	// the new primary on its own.
	group, err := tagserver.NewClient(primaryBase+","+r2Base, "laptop", fingerprint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := group.Observe("pad", "pad/failover#p0", sentence(3003)); err != nil {
		t.Fatalf("group client write after failover: %v", err)
	}
	if got := group.Primary(); got != r1Base {
		t.Errorf("group client primary = %q, want %q", got, r1Base)
	}
	if _, err := group.Check(sentence(3003), "pad"); err != nil {
		t.Fatalf("group client read after failover: %v", err)
	}
}
