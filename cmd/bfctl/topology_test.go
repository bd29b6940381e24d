package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/node"
	"github.com/lsds/browserflow/internal/partition"
)

// TestRingShowsTopology drives `bfctl -server <node> ring` over an
// in-memory transport against two partition nodes: the ring is read from
// the named node, and each member line carries what that member's
// /healthz says — role, term and ring version, flagged STALE where it
// differs from the ring shown — or why the member could not be reached.
func TestRingShowsTopology(t *testing.T) {
	hosts := faultinject.NewHosts()
	saved := replHTTP
	replHTTP = &http.Client{Transport: hosts}
	t.Cleanup(func() { replHTTP = saved })

	policy := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(policy, []byte(`{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	ring := &partition.Ring{Version: 1, Partitions: []partition.Partition{
		{ID: "p0", Lo: 0, Hi: math.MaxUint32 / 2, Nodes: []string{"http://p0"}},
		{ID: "p1", Lo: math.MaxUint32/2 + 1, Hi: math.MaxUint32, Nodes: []string{"http://p1", "http://gone"}},
	}}
	for _, id := range []string{"p0", "p1"} {
		r := *ring
		if id == "p1" {
			r.Version = 2 // p1 has installed a newer ring than p0 serves
		}
		ringFile := filepath.Join(t.TempDir(), "ring")
		if err := partition.SaveRingFile(ringFile, &r); err != nil {
			t.Fatal(err)
		}
		n, err := node.Open(node.Config{PolicyPath: policy, WALDir: "/data", FS: faultinject.NewMemFS(1),
			Fsync: "always", RingFile: ringFile, PartitionID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close(context.Background()) }) //nolint:errcheck
		hosts.Handle(id, n.Handler())
	}

	var out bytes.Buffer
	if err := run([]string{"-server", "http://p0", "ring"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{
		"ring:     v1, 2 partitions",
		"partition p0  range [0, 2147483647]",
		"  http://p0                    primary  term 0  ring v1",
		"partition p1  range [2147483648, 4294967295]",
		"  http://p1                    primary  term 0  ring v2 (STALE)",
		"  http://gone                  unreachable: ",
	}
	if len(lines) != len(want) {
		t.Fatalf("ring output:\n%s\nwant %d lines", out.String(), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) || (!strings.HasSuffix(w, ": ") && lines[i] != w) {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}

	h, err := getNodeHealth("http://p1/")
	if err != nil {
		t.Fatal(err)
	}
	if h.Partition == nil || h.Partition.ID != "p1" || h.Partition.RingVersion != 2 ||
		h.Partition.RangeLo != ring.Partitions[1].Lo || h.Partition.RangeHi != math.MaxUint32 {
		t.Errorf("p1 health partition = %+v", h.Partition)
	}
	if h.Replication == nil || h.Replication.Role != "primary" {
		t.Errorf("p1 health replication = %+v", h.Replication)
	}
	if _, err := getNodeHealth("http://gone"); err == nil {
		t.Error("health of an unreachable node: no error")
	}
}
