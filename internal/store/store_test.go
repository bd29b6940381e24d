package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

const secretText = "The confidential migration plan moves every internal workload to the new data centre by March."

func buildState(t testing.TB) (*disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	if err := registry.ObserveSegment("wiki/plan#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveParagraph("wiki/plan#p0", secretText); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveDocument("wiki/plan", secretText); err != nil {
		t.Fatal(err)
	}
	if err := registry.SuppressTag("alice", "wiki/plan#p0", "tw", "board approval"); err != nil {
		t.Fatal(err)
	}
	return tracker, registry
}

func freshState(t *testing.T) (*disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tracker, tdm.NewRegistry(tracker.Table(), audit.NewLog())
}

// verifyRestored checks the restored state behaves like the original:
// disclosure detection works and labels/audit survive.
func verifyRestored(t *testing.T, tracker *disclosure.Tracker, registry *tdm.Registry) {
	t.Helper()
	report, err := tracker.ObserveParagraph("docs/new#p0", secretText)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() || report.Sources[0].Seg != "wiki/plan#p0" {
		t.Errorf("restored tracker missed disclosure: %+v", report)
	}
	label := registry.Label("wiki/plan#p0")
	if label == nil || !label.Explicit().Has("tw") || !label.Suppressed().Has("tw") {
		t.Errorf("restored label wrong: %v", label)
	}
	if got := registry.Audit().Len(); got != 1 {
		t.Errorf("restored audit entries=%d, want 1", got)
	}
}

// saveState writes the state to path the way Middleware.Save does.
func saveState(t testing.TB, path string, tracker *disclosure.Tracker, registry *tdm.Registry, key []byte) error {
	t.Helper()
	blob, err := CaptureBytes(tracker, registry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return SaveCheckpointBytes(wal.OSFS{}, path, blob, key)
}

func TestSnapshotRoundTripPlaintext(t *testing.T) {
	tracker, registry := buildState(t)
	path := filepath.Join(t.TempDir(), "state.bf")
	if err := saveState(t, path, tracker, registry, nil); err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	if _, err := RestoreFile(wal.OSFS{}, path, nil, tracker2, registry2); err != nil {
		t.Fatal(err)
	}
	verifyRestored(t, tracker2, registry2)
}

func TestSnapshotRoundTripEncrypted(t *testing.T) {
	tracker, registry := buildState(t)
	key := DeriveKey("hunter2")
	path := filepath.Join(t.TempDir(), "state.enc")
	if err := saveState(t, path, tracker, registry, key); err != nil {
		t.Fatal(err)
	}
	// Fingerprint data must not be readable on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "BFLOWENC" {
		t.Error("encrypted file missing magic prefix")
	}
	if containsSub(raw, []byte("wiki/plan")) {
		t.Error("plaintext segment ID visible in encrypted file")
	}
	tracker2, registry2 := freshState(t)
	if _, err := RestoreFile(wal.OSFS{}, path, key, tracker2, registry2); err != nil {
		t.Fatal(err)
	}
	verifyRestored(t, tracker2, registry2)
}

func TestLoadWrongKey(t *testing.T) {
	tracker, registry := buildState(t)
	path := filepath.Join(t.TempDir(), "state.enc")
	if err := saveState(t, path, tracker, registry, DeriveKey("right")); err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	if _, err := RestoreFile(wal.OSFS{}, path, DeriveKey("wrong"), tracker2, registry2); !errors.Is(err, ErrBadKey) {
		t.Errorf("wrong key: err=%v, want ErrBadKey", err)
	}
	if _, err := RestoreFile(wal.OSFS{}, path, nil, tracker2, registry2); !errors.Is(err, ErrBadKey) {
		t.Errorf("nil key on encrypted file: err=%v, want ErrBadKey", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	tracker, registry := freshState(t)
	if _, err := RestoreFile(wal.OSFS{}, filepath.Join(t.TempDir(), "nope"), nil, tracker, registry); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt")
	if err := os.WriteFile(path, []byte("BFLOWSNB\x02truncated"), 0o600); err != nil {
		t.Fatal(err)
	}
	tracker, registry := freshState(t)
	var ce *CorruptSnapshotError
	if _, err := RestoreFile(wal.OSFS{}, path, nil, tracker, registry); !errors.As(err, &ce) {
		t.Errorf("corrupt file: err=%v, want CorruptSnapshotError", err)
	}
}

func TestRestoreVersionCheck(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	im, err := parseBinary("mem.bf", blob)
	if err != nil {
		t.Fatal(err)
	}
	im.sections[0] = binSection{kind: secMeta, payload: appendBinaryMeta(nil, 99, time.Now(), 0)}
	future := frameImage(binVersion, im.sections)
	tracker2, registry2 := freshState(t)
	if _, err := RestoreBytes("mem.bf", future, tracker2, registry2); err == nil {
		t.Error("unsupported version accepted")
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	a, b := DeriveKey("pass"), DeriveKey("pass")
	if string(a) != string(b) {
		t.Error("DeriveKey not deterministic")
	}
	if string(a) == string(DeriveKey("other")) {
		t.Error("different passphrases produced same key")
	}
	if len(a) != 32 {
		t.Errorf("key length=%d, want 32", len(a))
	}
}

func TestSaveErrors(t *testing.T) {
	tracker, registry := freshState(t)
	// Unwritable directory.
	if err := saveState(t, "/nonexistent-dir/state.bf", tracker, registry, nil); err == nil {
		t.Error("unwritable path accepted")
	}
	// Bad key length fails at seal time.
	if err := saveState(t, filepath.Join(t.TempDir(), "s.bf"), tracker, registry, []byte("short")); err == nil {
		t.Error("bad key length accepted")
	}
}

func TestLoadTruncatedEncrypted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc")
	if err := os.WriteFile(path, []byte("BFLOWENC"), 0o600); err != nil {
		t.Fatal(err)
	}
	tracker, registry := freshState(t)
	if _, err := RestoreFile(wal.OSFS{}, path, DeriveKey("k"), tracker, registry); !errors.Is(err, ErrBadKey) {
		t.Errorf("truncated ciphertext: err=%v, want ErrBadKey", err)
	}
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
