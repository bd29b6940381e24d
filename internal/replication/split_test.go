package replication

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// splitWorkload observes paragraph pairs on both sides of a split key the
// way a partitioned source node does (sole-partition, self-stamped
// resolved records). Each upper segment shares half its hashes with the
// lower one observed just before it, so on the source the lower segment is
// the oldest holder of the shared hashes and on a target that owns only the
// upper half the upper segment is.
type splitWorkload struct {
	kr           segment.KeyRange
	lower, upper []segment.ID // unobserved segments on each side of kr.Lo
	observed     []segment.ID
	hashes       []uint32 // every hash observed, ascending
}

func newSplitWorkload() *splitWorkload {
	w := &splitWorkload{kr: segment.KeyRange{Lo: 1 << 31, Hi: math.MaxUint32}}
	for i := 0; len(w.lower) < 10 || len(w.upper) < 10; i++ {
		seg := segment.ID(fmt.Sprintf("alpha/split%d#p0", i))
		if w.kr.Contains(segment.Key(seg)) {
			w.upper = append(w.upper, seg)
		} else {
			w.lower = append(w.lower, seg)
		}
	}
	return w
}

// observePairs observes the next n lower/upper pairs on e.
func (w *splitWorkload) observePairs(t *testing.T, e *policy.Engine, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		base := uint32(len(w.observed)*100 + 1)
		w.observe(t, e, &w.lower, base)
		w.observe(t, e, &w.upper, base+20)
	}
}

// observe observes the next segment of side as 40 hashes from base.
func (w *splitWorkload) observe(t *testing.T, e *policy.Engine, side *[]segment.ID, base uint32) {
	t.Helper()
	seg := (*side)[0]
	*side = (*side)[1:]
	hs := make([]uint32, 40)
	for j := range hs {
		hs[j] = base + uint32(j)
	}
	if _, err := e.ObserveSoleFPCtx(context.Background(), seg, "alpha", fingerprint.FromHashes(hs), segment.GranularityParagraph, 0); err != nil {
		t.Fatal(err)
	}
	w.observed = append(w.observed, seg)
	for _, h := range hs {
		if n := len(w.hashes); n == 0 || h > w.hashes[n-1] {
			w.hashes = append(w.hashes, h)
		}
	}
}

// check holds a split target's engine to the source's: its tracker holds
// exactly the observed in-range segments, with the oldest-holder sequence
// numbers of the source's state restricted to the range, and every observed
// segment — on either side — carries the source's explicit tags.
func (w *splitWorkload) check(t *testing.T, source *primaryFixture, target *policy.Engine) {
	t.Helper()
	var want []segment.ID
	for _, seg := range w.observed {
		if w.kr.Contains(segment.Key(seg)) {
			want = append(want, seg)
		}
	}
	got := target.Tracker().Paragraphs().Segments()
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("split target indexes %v, want exactly the in-range %v", got, want)
	}

	image, _, err := source.durable.CaptureImage(&w.kr)
	if err != nil {
		t.Fatal(err)
	}
	restricted := newWorld(t)
	if _, err := store.RestoreBytes("restricted", image, restricted.tracker, restricted.registry); err != nil {
		t.Fatal(err)
	}
	oldest := func(db *index.DB) []index.OldestRef { return db.AppendOldestRefs(w.hashes, nil) }
	if g, r := oldest(target.Tracker().Paragraphs()), oldest(restricted.tracker.Paragraphs()); !reflect.DeepEqual(g, r) {
		t.Fatalf("split target's oldest holders differ from the source's restricted to %+v:\ngot  %v\nwant %v", w.kr, g, r)
	}

	for i, seg := range w.observed {
		g := target.Registry().Label(seg)
		s := source.w.registry.Label(seg)
		if g == nil || s == nil || !reflect.DeepEqual(g.Explicit().Sorted(), s.Explicit().Sorted()) || (i == 0 && s.Explicit().Len() == 0) {
			t.Fatalf("label of %s on the split target = %v, source = %v", seg, g, s)
		}
	}
}

// A split target is a standby whose durable store owns one key range. It
// bootstraps from a range-restricted image, materialises only in-range
// segments from the verbatim stream, resumes from its own mirror after a
// restart, and recovers the same state as a primary after promotion and a
// crash — the in-process form of the -split-range path.
func TestFilteredSplitTarget(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	w := newSplitWorkload()
	w.observePairs(t, p.w.engine, 2) // in the bootstrap image

	fs := faultinject.NewMemFS(1)
	counter := &snapshotCounter{}
	dopts := store.DurableOptions{Dir: "/standby", FS: fs, KeyRange: &w.kr}
	r := newReplicaFixturePoll(t, p.server.URL, &http.Client{Transport: counter}, dopts, 40*time.Millisecond)
	startBootstrapped(t, r)
	w.observePairs(t, p.w.engine, 2) // streamed
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	w.check(t, p, r.w.engine)

	// Restart: recovery replays the mirror under the range and the stream
	// resumes where it stopped.
	r.shutdown()
	w.observePairs(t, p.w.engine, 2)
	r2 := newReplicaFixturePoll(t, p.server.URL, &http.Client{Transport: counter}, dopts, 40*time.Millisecond)
	r2.replica.Start()
	waitFor(t, 10*time.Second, "resume catch-up", func() bool { return caughtUp(p, r2) })
	w.check(t, p, r2.w.engine)
	if n, b := counter.served.Load(), r2.replica.Status().Bootstraps; n != 1 || b != 0 {
		t.Fatalf("after a restart: %d snapshots served, %d bootstraps by the restarted target; want 1 and 0", n, b)
	}

	// Out-of-range records the recovery below must skip, then promotion
	// and a crash: a primary restarted with the same range recovers the
	// promoted node's state.
	w.observePairs(t, p.w.engine, 2)
	waitFor(t, 10*time.Second, "catch-up before promotion", func() bool { return caughtUp(p, r2) })
	promoted, _, err := r2.replica.Promote()
	if err != nil {
		t.Fatal(err)
	}
	w.observe(t, r2.w.engine, &w.upper, 1<<20) // the promoted node's own write
	want := export(t, r2.w.tracker, r2.w.registry)
	if err := promoted.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	restarted := newWorld(t)
	d, err := store.OpenDurable(dopts, restarted.tracker, restarted.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Stats().Recovery.RecordsReplayed == 0 {
		t.Fatal("restart replayed no records: the range filter went unexercised")
	}
	if got := export(t, restarted.tracker, restarted.registry); string(got) != string(want) {
		t.Fatalf("primary restarted with the range recovered different state\ngot  %s\nwant %s", got, want)
	}
}
