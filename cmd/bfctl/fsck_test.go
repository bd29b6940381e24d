package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/node"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// seedDurableDir builds a real durable directory on the OS filesystem:
// some journalled mutations, a sealed segment, and one checkpoint.
func seedDurableDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	policyPath := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(policyPath, []byte(`{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	n, err := node.Open(node.Config{PolicyPath: policyPath, WALDir: dir, Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"service":"wiki","seg":"wiki/doc#p0","hashes":[1,2,3,4,5]}`,
		`{"service":"wiki","seg":"wiki/doc#p1","hashes":[6,7,8,9,10]}`,
	} {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("observe: status %d: %s", rec.Code, rec.Body)
		}
	}
	if err := n.Close(context.Background()); err != nil { // Close checkpoints + truncates
		t.Fatal(err)
	}
	// Close's checkpoint pruned every covered segment, so re-open the raw
	// WAL and seal a segment with records that no checkpoint covers —
	// exactly the kind of file a scrub-era fsck has to verify.
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := log.Append(wal.Record{Type: 1, Data: []byte("post-checkpoint payload with enough bytes to flip")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFsckCleanAndCorrupt: a clean directory passes; after a bit flip in
// a sealed segment, fsck reports the file with a byte offset and errors.
func TestFsckCleanAndCorrupt(t *testing.T) {
	dir := seedDurableDir(t)

	var out bytes.Buffer
	if err := run([]string{"-wal-dir", dir, "fsck"}, nil, &out); err != nil {
		t.Fatalf("clean fsck failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 corrupt") {
		t.Fatalf("clean fsck output missing summary:\n%s", out.String())
	}
	// Where the checkpoint bytes go: container version and every section.
	for _, want := range []string{" bytes, version 7: meta 24 pars ", " docs ", " registry ", " audit "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("clean fsck output does not break the checkpoint down (%q missing):\n%s", want, out.String())
		}
	}

	// An intact checkpoint in a format this build no longer loads is named
	// as such — not as corruption — and still fails the run.
	retired := filepath.Join(dir, store.CheckpointName(0))
	if err := os.WriteFile(retired, []byte(`{"version":1}`), 0o600); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-wal-dir", dir, "fsck"}, nil, &out); err == nil {
		t.Fatalf("fsck passed a directory with a retired-format checkpoint:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "RETIRED  "+store.CheckpointName(0)) ||
		strings.Contains(out.String(), "CORRUPT") || !strings.Contains(out.String(), "0 corrupt") {
		t.Fatalf("fsck output does not report the retired format on its own:\n%s", out.String())
	}
	if err := os.Remove(retired); err != nil {
		t.Fatal(err)
	}

	// So are intact checkpoints from a retired and from a newer build: the
	// real checkpoint with its version byte set to 5, then raised to 8, and
	// the header checksum made to match.
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("checkpoints: %v (%v)", matches, err)
	}
	image, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	headerLen := 8 + 2 + int(image[9])*24
	writeVersion := func(v byte) string {
		image[8] = v
		binary.LittleEndian.PutUint32(image[headerLen:], crc32.Checksum(image[:headerLen], crc32.MakeTable(crc32.Castagnoli)))
		path := filepath.Join(dir, store.CheckpointName(0))
		if err := os.WriteFile(path, image, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	writeVersion(5)
	out.Reset()
	if err := run([]string{"-wal-dir", dir, "fsck"}, nil, &out); err == nil {
		t.Fatalf("fsck passed a directory with a version 5 checkpoint:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "RETIRED  "+store.CheckpointName(0)+"  BFLOWSNB version 5 format") ||
		strings.Contains(out.String(), "CORRUPT") || !strings.Contains(out.String(), "0 corrupt") {
		t.Fatalf("fsck output does not report the retired version on its own:\n%s", out.String())
	}
	newer := writeVersion(8)
	out.Reset()
	if err := run([]string{"-wal-dir", dir, "fsck"}, nil, &out); err == nil {
		t.Fatalf("fsck passed a directory with a checkpoint from a newer build:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NEWER    "+store.CheckpointName(0)+"  version 8") ||
		strings.Contains(out.String(), "CORRUPT") || !strings.Contains(out.String(), "0 corrupt") {
		t.Fatalf("fsck output does not report the newer version on its own:\n%s", out.String())
	}
	if err := os.Remove(newer); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the first surviving sealed segment.
	matches, err = filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments to corrupt: %v (matches %v)", err, matches)
	}
	var seg string
	for _, m := range matches {
		if info, err := os.Stat(m); err == nil && info.Size() > wal.HeaderSize+8 {
			seg = m
			break
		}
	}
	if seg == "" {
		t.Fatalf("no segment with records among %v", matches)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[wal.HeaderSize+5] ^= 0x20
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err = run([]string{"-wal-dir", dir, "fsck"}, nil, &out)
	if err == nil {
		t.Fatalf("fsck passed a corrupt segment:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "CORRUPT") || !strings.Contains(out.String(), "at byte") {
		t.Fatalf("fsck output missing corruption report with byte offset:\n%s", out.String())
	}
}

// TestFsckRequiresDir: fsck without -wal-dir is an error, not a panic.
func TestFsckRequiresDir(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fsck"}, nil, &out); err == nil {
		t.Fatal("fsck without -wal-dir succeeded")
	}
}

// TestScrubStatusCommand renders a node's /healthz storage block — a
// primary's or, since a standby runs the same durable store from the start,
// a standby's.
func TestScrubStatusCommand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		health map[string]any
		want   []string
	}{
		{
			name: "degraded primary",
			health: map[string]any{
				"status": "ok",
				"storage": map[string]any{
					"scrubPasses":      4,
					"lastScrubAge":     "32s",
					"framesVerified":   1234,
					"corruptionsFound": 1,
					"quarantines":      1,
					"quarantinedFiles": 1,
					"lastCorruption":   "wal-0000000000000002.log: frame CRC mismatch",
					"diskDegraded":     true,
					"degradedCause":    "enospc",
					"failOpen":         false,
					"droppedRecords":   0,
					"diskRecoveries":   2,
				},
			},
			want: []string{
				"scrub passes:      4",
				"last pass age:     32s",
				"frames verified:   1234",
				"quarantines:       1 (on disk now: 1)",
				"DEGRADED (enospc, fail-closed)",
			},
		},
		{
			name: "standby before promotion",
			health: map[string]any{
				"status":      "ok",
				"replication": map[string]any{"role": "replica", "term": 3, "position": "7,4505", "bootstraps": 1},
				"durability":  map[string]any{"walSegments": 2, "checkpoints": 6},
				"storage": map[string]any{
					"scrubPasses":    9,
					"lastScrubAge":   "2s",
					"framesVerified": 310,
					"failOpen":       true,
					"diskRecoveries": 1,
				},
			},
			want: []string{
				"scrub passes:      9",
				"last pass age:     2s",
				"frames verified:   310",
				"quarantines:       0 (on disk now: 0)",
				"disk:              healthy (1 recoveries)",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(tc.health) //nolint:errcheck
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			var out bytes.Buffer
			if err := run([]string{"-server", srv.URL, "scrub-status"}, nil, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("scrub-status output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}
