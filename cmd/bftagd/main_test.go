package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/node"
)

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing policy accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-policy", "/nonexistent.json"}); err == nil {
		t.Error("missing policy file accepted")
	}
	// The pre-WAL single-file mode is gone: -wal-dir is the one way to be
	// durable, and an old command line must fail loudly, not run
	// memory-only.
	for _, gone := range []string{"-state", "-save-every"} {
		err := run([]string{"-policy", "/nonexistent.json", gone, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want a flag error", gone, err)
		}
	}
}

func TestRunListenFailure(t *testing.T) {
	// Setup succeeds; the unusable address fails fast.
	if err := run([]string{"-policy", writeTestPolicy(t, t.TempDir()), "-addr", "256.256.256.256:0"}); err == nil {
		t.Error("expected listen error")
	}
}

// TestRunPolicyLintGate: a policy with a lint diagnostic — here a
// fail-open hole, which is only a warning for Validate — must stop the
// server unless the operator opts out with -policy-lint=false.
func TestRunPolicyLintGate(t *testing.T) {
	dir := t.TempDir()
	policyPath := filepath.Join(dir, "failopen.json")
	policyJSON := `{"services":[
		{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},
		{"name":"pastebin","privilege":["tw"]}
	]}`
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	// The lint runs before the listener is bound, so a busy -addr does not
	// hide it.
	busy := httptest.NewServer(http.NotFoundHandler())
	defer busy.Close()
	err := run([]string{"-policy", policyPath, "-addr", busy.Listener.Addr().String()})
	if err == nil {
		t.Fatal("fail-open policy accepted with lint on")
	}
	if !strings.Contains(err.Error(), "policy lint failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Opting out skips the gate; the unusable debug address, bound only
	// after the node is assembled, proves we got past policy loading.
	err = run([]string{"-policy", policyPath, "-policy-lint=false", "-addr", "127.0.0.1:0", "-debug-listen", "256.256.256.256:0"})
	if err == nil || !strings.Contains(err.Error(), "debug listen") {
		t.Fatalf("lint opt-out did not reach the debug listener: %v", err)
	}
}

// assertClosed fails the test when anything still accepts on addr.
func assertClosed(t *testing.T, what, addr string) {
	t.Helper()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("%s listener %s still accepts after run returned", what, addr)
	}
}

// TestRunClosesListenersOnFailedStart: a start that fails after the first
// Listen leaves nothing accepting — neither with a -debug-listen that
// cannot be bound (the -repl-listen listener used to keep serving the
// replication API over the closed store) nor with a -wal-dir the durable
// store cannot open.
func TestRunClosesListenersOnFailedStart(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeTestPolicy(t, dir)
	addr, replAddr := freeAddr(t), freeAddr(t)
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"debug listen", []string{"-wal-dir", filepath.Join(dir, "wal"), "-repl-listen", replAddr, "-debug-listen", "256.256.256.256:0"}},
		{"open wal dir", []string{"-wal-dir", policyPath, "-term-file", filepath.Join(dir, "TERM")}}, // a file, not a directory
	} {
		err := run(append([]string{"-policy", policyPath, "-addr", addr}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run %v = %v, want a %s error", tc.args, err, tc.want)
		}
		assertClosed(t, "main", addr)
		assertClosed(t, "repl", replAddr)
	}
}

// TestServeFailureShutsEverythingDown: when one server fails, serve takes
// the signal's way out: it returns that server's error, shuts the other
// servers down and closes the node, whose final checkpoint is on disk.
func TestServeFailureShutsEverythingDown(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	n, err := node.Open(node.Config{PolicyPath: writeTestPolicy(t, dir), WALDir: walDir, Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := func() int {
		names, _ := filepath.Glob(filepath.Join(walDir, "checkpoint-*"))
		return len(names)
	}
	before := checkpoints()
	// Two loopback listeners; the second's server fails at once in Accept.
	lns := []net.Listener{httptest.NewUnstartedServer(nil).Listener, httptest.NewUnstartedServer(nil).Listener}
	lns[1].Close()
	servers := []*http.Server{{Handler: n.Handler()}, {Handler: n.DebugHandler()}}
	if err := serve(context.Background(), n, time.Second, servers, lns); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("serve = %v, want the failed server's error", err)
	}
	assertClosed(t, "healthy", lns[0].Addr().String())
	if checkpoints() <= before {
		t.Errorf("%d checkpoints after serve returned, %d before: the node was not closed", checkpoints(), before)
	}
}
