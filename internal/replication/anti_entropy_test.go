package replication

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// TestDigestEndpointServesPrimaryState checks /v1/repl/digest serves the
// tracker digest breakdown with the combined fold mirrored in the header.
func TestDigestEndpointServesPrimaryState(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		mutate(t, p.w.engine, rng)
	}

	resp, err := http.Get(p.server.URL + "/v1/repl/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest endpoint: status %d", resp.StatusCode)
	}
	var body struct {
		Position string                   `json:"position"`
		Digest   disclosure.TrackerDigest `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := p.w.tracker.Digest()
	if body.Digest.Combined != want.Combined {
		t.Fatalf("served digest %016x, tracker reports %016x", body.Digest.Combined, want.Combined)
	}
	if body.Digest.Paragraphs != want.Paragraphs || body.Digest.Documents != want.Documents {
		t.Fatalf("per-DB digest breakdown mismatch: %+v vs %+v", body.Digest, want)
	}
	if got := resp.Header.Get(HeaderDigest); got != fmt.Sprintf("%016x", want.Combined) {
		t.Fatalf("%s header = %q, want %016x", HeaderDigest, got, want.Combined)
	}
	if body.Position != p.durable.WAL().End().String() {
		t.Fatalf("digest position %s, WAL end %s", body.Position, p.durable.WAL().End())
	}
}

// TestDivergedReplicaAutoRebootstraps is the anti-entropy E2E: a replica
// whose in-memory state silently diverges while standing at the same WAL
// position as the primary is detected via the stream digest exchange,
// ordered to re-bootstrap with a 410 + X-BF-Diverged, and comes back
// byte-identical — all without operator involvement.
func TestDivergedReplicaAutoRebootstraps(t *testing.T) {
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		mutate(t, p.w.engine, rng)
	}

	r := newReplicaFixture(t, p.server.URL, "", nil)
	startBootstrapped(t, r)
	waitFor(t, 10*time.Second, "replica catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)

	// Silently corrupt the replica's in-memory state behind the journal's
	// back: a direct tracker mutation moves its digest without moving its
	// WAL position — exactly the failure replication cannot see without
	// digests (a stuck apply, a lost update, memory corruption).
	if _, err := r.w.tracker.ObserveParagraph("alpha/phantom#p0", testTexts[0]); err != nil {
		t.Fatal(err)
	}
	if r.w.tracker.Digest().Combined == p.w.tracker.Digest().Combined {
		t.Fatal("divergence setup failed: digests still match")
	}

	// The replica keeps long-polling while caught up; after
	// divergenceStrikes consecutive mismatched rounds at the same
	// position the primary answers 410 + X-BF-Diverged and the replica
	// re-bootstraps on its own.
	waitFor(t, 15*time.Second, "divergence-triggered re-bootstrap", func() bool {
		return r.replica.Status().Bootstraps >= 2
	})
	waitFor(t, 10*time.Second, "post-repair catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)

	if got := r.replica.Status().Divergences; got < 1 {
		t.Fatalf("replica divergence counter = %d, want >= 1", got)
	}
	p.svc.mu.Lock()
	prim := p.svc.primary
	p.svc.mu.Unlock()
	if got := prim.Divergences(); got < 1 {
		t.Fatalf("primary divergence counter = %d, want >= 1", got)
	}

	// The repaired replica must keep following normally.
	for i := 0; i < 20; i++ {
		mutate(t, p.w.engine, rng)
	}
	waitFor(t, 10*time.Second, "post-repair streaming", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	assertBytePrefix(t, p.dir, r.dir)
	if got := r.replica.Status().Bootstraps; got > 2 {
		t.Fatalf("replica kept re-bootstrapping after repair: %d bootstraps", got)
	}
}

// TestMatchingDigestsNeverTriggerRebootstrap pins the no-false-positive
// property: a healthy replica exchanging digests on every round while
// traffic starts and stops never earns a confirmed divergence.
func TestMatchingDigestsNeverTriggerRebootstrap(t *testing.T) {
	clk := clock.NewFake(testEpoch)
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone, Clock: clk})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		mutate(t, p.w.engine, rng)
	}
	r := newReplicaFixtureOpts(t, p.server.URL, nil, store.DurableOptions{Clock: clk})
	startBootstrapped(t, r)

	// Bursts separated by caught-up idle windows of exactly two digest
	// adjudication rounds: each long-poll the clock expires is one.
	for burst := 0; burst < 3; burst++ {
		waitFor(t, 10*time.Second, "burst catch-up", func() bool { return caughtUp(p, r) })
		for round := 0; round < 2; round++ {
			clk.WaitArmed(2) // the replica's request timeout and the primary's long-poll
			clk.Advance(250 * time.Millisecond)
		}
		for i := 0; i < 15; i++ {
			mutate(t, p.w.engine, rng)
		}
	}
	waitFor(t, 10*time.Second, "final catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)

	if got := r.replica.Status().Bootstraps; got != 1 {
		t.Fatalf("healthy replica re-bootstrapped: %d bootstraps", got)
	}
	if got := r.replica.Status().Divergences; got != 0 {
		t.Fatalf("healthy replica charged with %d divergences", got)
	}
}
