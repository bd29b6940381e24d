package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/store"
)

// TestMain doubles as a re-exec shim: when BFTAGD_TEST_ARGS is set, the
// test binary becomes the daemon itself. The kill -9 test uses this to run
// a real bftagd process it can destroy without ceremony.
func TestMain(m *testing.M) {
	if args := os.Getenv("BFTAGD_TEST_ARGS"); args != "" {
		if err := run(strings.Split(args, "\n")); err != nil {
			fmt.Fprintln(os.Stderr, "bftagd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func writeTestPolicy(t *testing.T, dir string) string {
	t.Helper()
	policyPath := filepath.Join(dir, "policy.json")
	policyJSON := `{"services":[
		{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},
		{"name":"pad","privilege":[],"confidentiality":[]}
	]}`
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	return policyPath
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getHealth(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

const checkBody = `{"device":"d","dest":"pad","hashes":[1,2,3,4,5,6,7,8,9,10]}`

// seedObservations drives a few mutations through the wire API: two
// singular observes, a batched flush, and a suppression — every journalled
// record family the daemon produces in normal operation.
func seedObservations(t *testing.T, base string) {
	t.Helper()
	for _, req := range []struct{ path, body string }{
		{"/v1/observe", `{"device":"d","service":"wiki","seg":"wiki/s#p0","hashes":[1,2,3,4,5,6,7,8,9,10]}`},
		{"/v1/observe", `{"device":"d","service":"wiki","seg":"wiki/s#p1","hashes":[11,12,13,14,15],"granularity":"document"}`},
		{"/v1/observe/batch", `{"device":"d","service":"pad","items":[` +
			`{"seg":"pad/n#p0","hashes":[1,2,3,4,5,6,7,8,9,10]},` +
			`{"seg":"pad/n#p1","hashes":[21,22,23]}]}`},
	} {
		status, body := postJSON(t, base+req.path, req.body)
		if status != http.StatusOK {
			t.Fatalf("%s status=%d body=%s", req.path, status, body)
		}
	}
}

// A clean SIGTERM with -wal-dir flushes a final checkpoint; the next start
// recovers it with nothing left to replay, and the recovered process
// returns the same /v1/check verdicts as the one that shut down.
func TestDurableShutdownAndRecover(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)
	walDir := filepath.Join(dir, "wal")

	start := func() (string, chan error) {
		addr := freeAddr(t)
		errCh := make(chan error, 1)
		go func() {
			errCh <- run([]string{
				"-policy", policyPath,
				"-addr", addr,
				"-wal-dir", walDir,
				"-fsync", "always",
				"-checkpoint-every", "0",
				"-shutdown-grace", "5s",
			})
		}()
		base := "http://" + addr
		waitHealthy(t, base)
		return base, errCh
	}
	stop := func(errCh chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM, want clean shutdown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down within the grace period")
		}
	}

	base, errCh := start()
	seedObservations(t, base)
	_, wantVerdict := postJSON(t, base+"/v1/check", checkBody)
	stop(errCh)

	// Second life: recovery must come from the shutdown checkpoint alone.
	base, errCh = start()
	defer stop(errCh)

	if _, got := postJSON(t, base+"/v1/check", checkBody); !bytes.Equal(got, wantVerdict) {
		t.Errorf("verdict after restart = %s, want %s", got, wantVerdict)
	}
	h := getHealth(t, base)
	dur, ok := h["durability"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no durability block: %v", h)
	}
	if ckpt, _ := dur["checkpointLoaded"].(string); ckpt == "" {
		t.Errorf("clean shutdown left no checkpoint to load: %v", dur)
	}
	if replayed, _ := dur["recordsReplayed"].(float64); replayed != 0 {
		t.Errorf("clean shutdown still replayed %v records", replayed)
	}
}

// Kill -9 is the whole point of the WAL: a real bftagd subprocess is
// destroyed without any shutdown path running, then a second instance on
// the same -wal-dir must replay the log and give identical /v1/check
// verdicts, reporting the recovery in its durability metrics.
func TestKillNineRecovery(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)
	walDir := filepath.Join(dir, "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	args := []string{
		"-policy", policyPath,
		"-addr", addr,
		"-wal-dir", walDir,
		"-fsync", "always",
		"-checkpoint-every", "0", // no background checkpoints: recovery is pure replay
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BFTAGD_TEST_ARGS="+strings.Join(args, "\n"))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	waitHealthy(t, base)

	seedObservations(t, base)
	_, wantVerdict := postJSON(t, base+"/v1/check", checkBody)

	// No SIGTERM, no drain, no final checkpoint: SIGKILL.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Second instance, in-process, same WAL directory.
	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append(append([]string(nil), args...), "-addr", addr2))
	}()
	waitHealthy(t, base2)
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case <-errCh:
		case <-time.After(10 * time.Second):
			t.Fatal("recovered daemon did not shut down")
		}
	}()

	if _, got := postJSON(t, base2+"/v1/check", checkBody); !bytes.Equal(got, wantVerdict) {
		t.Errorf("verdict after kill -9 recovery = %s, want %s", got, wantVerdict)
	}

	h := getHealth(t, base2)
	dur, ok := h["durability"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no durability block: %v", h)
	}
	if replayed, _ := dur["recordsReplayed"].(float64); replayed < 3 {
		t.Errorf("recovery replayed %v records, want >= 3 (the seeded mutations)", replayed)
	}

	// The durability gauges are visible on the metrics endpoint.
	resp, err := http.Get(base2 + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"bf_wal_records_total",
		"bf_recovery_records_replayed",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// The checkpoint barrier stops journalled mutations, not index
// maintenance: the -compact-every ticker merges posting heads (interning
// segment refs) beside the checkpointer's encode. Both tickers at 20 ms
// under write load for a second: the process must still be alive — the
// encoder used to index past its segment table and panic in the
// checkpointer goroutine — and after a kill -9 the newest checkpoint must
// recover to the verdicts the first instance gave.
func TestCheckpointBesideCompaction(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)
	walDir := filepath.Join(dir, "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	args := []string{
		"-policy", policyPath,
		"-addr", addr,
		"-wal-dir", walDir,
		"-fsync", "none",
		"-checkpoint-every", "20ms",
		"-compact-every", "20ms",
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BFTAGD_TEST_ARGS="+strings.Join(args, "\n"))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()
	waitHealthy(t, base)

	// New segments on every request, so every compaction interns and
	// every checkpoint has something to cover.
	deadline := time.Now().Add(time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		var items []string
		for j := 0; j < 64; j++ {
			n := i*64 + j
			items = append(items, fmt.Sprintf(`{"seg":"wiki/load%d#p%d","hashes":[%d,%d,%d]}`, n/16, n%16, 3*n+100, 3*n+101, 3*n+102))
		}
		select {
		case err := <-exited:
			t.Fatalf("daemon died under checkpoint + compaction load: %v", err)
		default:
		}
		status, body := postJSON(t, base+"/v1/observe/batch", `{"device":"d","service":"wiki","items":[`+strings.Join(items, ",")+`]}`)
		if status != http.StatusOK {
			t.Fatalf("batch %d: status=%d body=%s", i, status, body)
		}
	}
	seedObservations(t, base)
	_, wantVerdict := postJSON(t, base+"/v1/check", checkBody)
	dur, _ := getHealth(t, base)["durability"].(map[string]any)
	if n, _ := dur["checkpoints"].(float64); n < 2 {
		t.Fatalf("only %v background checkpoints in a second at -checkpoint-every 20ms: %v", n, dur)
	}
	if n, _ := dur["checkpointErrors"].(float64); n != 0 {
		t.Errorf("%v checkpoint errors: %v", n, dur)
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	var newest uint64
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if seg, ok := store.ParseCheckpointName(e.Name()); ok && seg > newest {
			newest = seg
		}
	}

	// Second instance, in-process, same WAL directory.
	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append(append([]string(nil), args...), "-addr", addr2))
	}()
	waitHealthy(t, base2)
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case <-errCh:
		case <-time.After(10 * time.Second):
			t.Fatal("recovered daemon did not shut down")
		}
	}()
	if _, got := postJSON(t, base2+"/v1/check", checkBody); !bytes.Equal(got, wantVerdict) {
		t.Errorf("verdict after recovery = %s, want %s", got, wantVerdict)
	}
	dur, _ = getHealth(t, base2)["durability"].(map[string]any)
	if ckpt, _ := dur["checkpointLoaded"].(string); ckpt != store.CheckpointName(newest) {
		t.Errorf("recovery loaded %q, want the newest checkpoint %s: %v", ckpt, store.CheckpointName(newest), dur)
	}
}

// The upgrade path from the removed -state mode: a state file that
// `bftagd -state` wrote (after seedObservations, plain and with
// -passphrase), loaded and re-saved by the last build to write container
// version 6, is a checkpoint image, so renamed to the barrier-0
// checkpoint inside a -wal-dir it is recovered with the verdicts it was
// saved with.
func TestStateFileUpgradesToWALDir(t *testing.T) {
	const savedVerdict = `{"decision":"warn","violating":["tw"],"sources":[{"seg":"wiki/s#p0","disclosure":1}]}` + "\n"
	for _, tc := range []struct{ fixture, passphrase string }{
		{"pr19-state.bf", ""},
		{"pr19-state-enc.bf", "fixture-passphrase"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := t.TempDir()
			policyPath := writeTestPolicy(t, dir)
			walDir := filepath.Join(dir, "wal")
			image, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(walDir, 0o700); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(walDir, store.CheckpointName(0)), image, 0o600); err != nil {
				t.Fatal(err)
			}

			addr := freeAddr(t)
			base := "http://" + addr
			args := []string{"-policy", policyPath, "-addr", addr, "-wal-dir", walDir}
			if tc.passphrase != "" {
				args = append(args, "-passphrase", tc.passphrase)
			}
			errCh := make(chan error, 1)
			go func() { errCh <- run(args) }()
			waitHealthy(t, base)
			defer func() {
				syscall.Kill(os.Getpid(), syscall.SIGTERM)
				select {
				case <-errCh:
				case <-time.After(10 * time.Second):
					t.Fatal("daemon did not shut down")
				}
			}()

			if _, got := postJSON(t, base+"/v1/check", checkBody); string(got) != savedVerdict {
				t.Errorf("verdict over the upgraded state file = %s, want %s", got, savedVerdict)
			}
			dur, _ := getHealth(t, base)["durability"].(map[string]any)
			if ckpt, _ := dur["checkpointLoaded"].(string); ckpt != store.CheckpointName(0) {
				t.Errorf("recovery loaded %q, want %s: %v", ckpt, store.CheckpointName(0), dur)
			}
		})
	}
}
