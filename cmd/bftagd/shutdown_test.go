package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/store"
)

// freeAddr reserves an ephemeral port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// The daemon serves with body bounds and drains gracefully on SIGINT,
// leaving a checkpoint on the way out that a restart recovers with
// nothing to replay.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	policyPath := filepath.Join(dir, "policy.json")
	policyJSON := `{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}]}`
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-policy", policyPath,
			"-addr", addr,
			"-wal-dir", walDir,
			"-checkpoint-every", "0",
			"-max-body", "512",
			"-shutdown-grace", "5s",
		})
	}()
	waitHealthy(t, base)

	// Within bounds: observed normally.
	small := `{"device":"d","service":"wiki","seg":"wiki/s#p0","hashes":[1,2,3]}`
	resp, err := http.Post(base+"/v1/observe", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("observe status=%d", resp.StatusCode)
	}

	// Past -max-body: rejected with 413.
	big := fmt.Sprintf(`{"device":"d","service":"wiki","seg":"wiki/s#p1","hashes":[%s1]}`,
		strings.Repeat("1,", 2048))
	resp, err = http.Post(base+"/v1/observe", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized observe status=%d, want 413", resp.StatusCode)
	}

	// SIGINT: the daemon drains and exits cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within the grace period")
	}

	// State was persisted on the way out: a checkpoint that covers the
	// whole log.
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, e := range entries {
		if _, ok := store.ParseCheckpointName(e.Name()); ok {
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Errorf("no checkpoint left at shutdown: %v", entries)
	}
	addr2 := freeAddr(t)
	go func() { errCh <- run([]string{"-policy", policyPath, "-addr", addr2, "-wal-dir", walDir}) }()
	waitHealthy(t, "http://"+addr2)
	dur, _ := getHealth(t, "http://"+addr2)["durability"].(map[string]any)
	if ckpt, _ := dur["checkpointLoaded"].(string); ckpt == "" {
		t.Errorf("restart loaded no checkpoint: %v", dur)
	}
	if replayed, _ := dur["recordsReplayed"].(float64); replayed != 0 {
		t.Errorf("restart after a clean SIGINT replayed %v records, want 0", replayed)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("restarted daemon did not shut down")
	}
}
