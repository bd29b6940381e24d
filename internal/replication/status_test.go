package replication

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// getStatus fetches and decodes base's /v1/repl/status, checking the term
// header agrees with the body.
func getStatus(t *testing.T, base string) ReplicaStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %d", resp.StatusCode)
	}
	var st ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if h := resp.Header.Get(HeaderTerm); h != strconv.FormatUint(st.Term, 10) {
		t.Errorf("%s header %q, body term %d", HeaderTerm, h, st.Term)
	}
	return st
}

// TestStatusEndpoint pins /v1/repl/status, the document `bfctl status`
// and an operator's view of a replication group read: a primary names its
// role, term and journal end and counts its appended records; a standby
// names its primary, its bootstraps and, once caught up, the primary's
// position with no lag. It answers GET only.
func TestStatusEndpoint(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20; i++ {
		mutate(t, p.w.engine, rng)
	}
	st := getStatus(t, p.server.URL)
	end := p.durable.WAL().End().String()
	if st.Role != "primary" || !st.Connected || st.Position != end || st.Primary != "" {
		t.Errorf("primary status = %+v, want role primary, connected, position %s, no primary", st, end)
	}
	if appended := p.durable.WAL().Stats().RecordsAppended; st.AppliedRecords != appended || appended == 0 {
		t.Errorf("primary appliedRecords = %d, want the %d records its WAL appended", st.AppliedRecords, appended)
	}

	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	svc := NewService(r.node, PrimaryOptions{MaxWait: time.Second}, t.Logf)
	svc.SetReplica(r.replica)
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	st = getStatus(t, server.URL)
	if st.Role != "replica" || st.Primary != p.server.URL || st.Term != getStatus(t, p.server.URL).Term {
		t.Errorf("standby status = %+v, want role replica following %s at the primary's term", st, p.server.URL)
	}
	// The bootstrap's snapshot rotated the primary's journal.
	end = p.durable.WAL().End().String()
	if !st.Connected || st.Position != end || st.LagRecords != 0 || st.Bootstraps < 1 {
		t.Errorf("standby status = %+v, want connected at %s with no lag after a bootstrap", st, end)
	}

	resp, err := http.Post(server.URL+"/v1/repl/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status: HTTP %d, want 405", resp.StatusCode)
	}
}
