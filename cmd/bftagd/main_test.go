package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	dir := t.TempDir()
	policyPath := filepath.Join(dir, "policy.json")
	policyJSON := `{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}]}`
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	// Setup succeeds; the unusable address fails fast.
	if err := run([]string{"-policy", policyPath, "-addr", "256.256.256.256:0"}); err == nil {
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
	err := run([]string{"-policy", policyPath})
	if err == nil {
		t.Fatal("fail-open policy accepted with lint on")
	}
	if !strings.Contains(err.Error(), "policy lint failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Opting out skips the gate; the unusable address proves we got past
	// policy loading into the serve path.
	err = run([]string{"-policy", policyPath, "-policy-lint=false", "-addr", "256.256.256.256:0"})
	if err == nil || strings.Contains(err.Error(), "policy lint") {
		t.Fatalf("lint opt-out did not reach the listener: %v", err)
	}
}
