package replication

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// One node lifecycle: a standby is a store.Durable in the follower role,
// so everything below holds a standby to what a primary's store does —
// checkpoints, scrubbing, disk faults, crashes — and promotion to being a
// role flip of that same store.

// snapshotCounter counts the snapshots a primary actually served.
type snapshotCounter struct{ served atomic.Int64 }

func (c *snapshotCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(req.URL.Path, "/v1/repl/snapshot") {
		c.served.Add(1)
	}
	return resp, err
}

// memStandby opens a standby whose durable directory lives on fs.
func memStandby(t *testing.T, primaryURL string, fs *faultinject.MemFS, dopts store.DurableOptions) *replicaFixture {
	t.Helper()
	dopts.Dir, dopts.FS = "/standby", fs
	if dopts.ProbeEvery == 0 {
		dopts.ProbeEvery = 10 * time.Millisecond
	}
	return newReplicaFixturePoll(t, primaryURL, nil, dopts, 40*time.Millisecond)
}

func mutateN(t testing.TB, e *policy.Engine, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mutate(t, e, rng)
	}
}

// segmentFiles lists the WAL segment indexes in dir on fs.
func segmentFiles(t *testing.T, fs wal.FS, dir string) []uint64 {
	t.Helper()
	segs, err := wal.ListSegments(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// checkpointFiles counts the checkpoint files in dir on fs.
func checkpointFiles(t *testing.T, fs wal.FS, dir string) int {
	t.Helper()
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if _, ok := store.ParseCheckpointName(name); ok {
			n++
		}
	}
	return n
}

// A caught-up standby parked at the end of the primary's current segment
// must survive the primary's checkpoint (rotate + truncate) without being
// told its position is gone: ten checkpoints, one bootstrap. At the parent
// eight of the nine checkpoints after the first ordered a re-bootstrap.
func TestStandbySurvivesPrimaryCheckpoints(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	counter := &snapshotCounter{}
	r := newReplicaFixture(t, p.server.URL, "", &http.Client{Transport: counter})
	startBootstrapped(t, r)

	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 10; round++ {
		mutateN(t, p.w.engine, rng, 200)
		waitFor(t, 10*time.Second, "lag 0 before the checkpoint", func() bool { return caughtUp(p, r) })
		if err := p.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mutateN(t, p.w.engine, rng, 20)
	waitFor(t, 10*time.Second, "final catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	if st := r.replica.Status(); st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1: a primary checkpoint ordered a lag-0 standby to start over", st.Bootstraps)
	}
	if n := counter.served.Load(); n != 1 {
		t.Errorf("primary served %d snapshots, want 1", n)
	}
}

// A promotion that cannot make the journal ready must leave a streaming
// standby and a 5xx — at the parent it left a primary with no journal that
// acked writes and told the operator it was already promoted.
func TestFailedPromotionStaysStandby(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	fs := faultinject.NewMemFS(1)
	r := memStandby(t, p.server.URL, fs, store.DurableOptions{})
	startBootstrapped(t, r)
	rng := rand.New(rand.NewSource(43))
	mutateN(t, p.w.engine, rng, 40)
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })

	rsvc := NewService(r.node, PrimaryOptions{MaxWait: time.Second, Logf: t.Logf}, t.Logf)
	rsvc.SetReplica(r.replica)
	rserver := httptest.NewServer(rsvc.Handler())
	defer rserver.Close()
	var reached atomic.Int64 // writes the guard let through to the engine
	guarded := httptest.NewServer(Guard(r.node, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reached.Add(1)
		if err := r.w.engine.AllocateTag("user", "user:first-write"); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}), t.Logf))
	defer guarded.Close()
	post := func(url string) int {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	fs.SetReadOnly(true)
	if code := post(rserver.URL + "/v1/repl/promote"); code < 500 {
		t.Fatalf("promote on a read-only disk: status %d, want 5xx", code)
	}
	if role := r.node.Role(); role != RoleReplica {
		t.Fatalf("role after a failed promotion = %s, want replica", role)
	}
	if term := r.node.Term(); term != 0 {
		t.Errorf("term after a failed promotion = %d, want 0", term)
	}
	if r.w.engine.Journal() != nil {
		t.Error("failed promotion left a journal on the standby's engine")
	}
	if code := post(guarded.URL + "/v1/observe"); code != http.StatusMisdirectedRequest || reached.Load() != 0 {
		t.Fatalf("write after a failed promotion: status %d, %d reached the engine; want 421 and 0", code, reached.Load())
	}

	// Still a standby in deed: the stream loop is running again.
	fs.SetReadOnly(false)
	mutateN(t, p.w.engine, rng, 20)
	waitFor(t, 10*time.Second, "streaming after the failed promotion", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)

	// And promotable once the disk is back; the first write is journalled.
	streamed := r.replica.Durable().Stats().WAL.RecordsAppended
	if code := post(rserver.URL + "/v1/repl/promote"); code != http.StatusOK {
		t.Fatalf("promote on a healthy disk: status %d, want 200", code)
	}
	if role, term := r.node.Role(), r.node.Term(); role != RolePrimary || term != 1 {
		t.Fatalf("after promotion: role %s term %d, want primary 1", role, term)
	}
	if code := post(guarded.URL + "/v1/observe"); code != http.StatusOK {
		t.Fatalf("first write on the promoted node: status %d", code)
	}
	if got := r.replica.Durable().Stats().WAL.RecordsAppended; got <= streamed {
		t.Errorf("first write after promotion is not in the WAL (%d records before, %d after)", streamed, got)
	}
}

// bigState loads n distinct hashes into the engine, 1 000 per segment.
func bigState(t testing.TB, e *policy.Engine, n int) {
	t.Helper()
	hashes := make([]uint32, 1000)
	for s := 0; s*len(hashes) < n; s++ {
		for i := range hashes {
			hashes[i] = uint32(s*len(hashes) + i + 1)
		}
		seg := segment.ID(fmt.Sprintf("alpha/big%d#p0", s))
		if _, err := e.ObserveEditFP(seg, "alpha", fingerprint.FromHashes(hashes)); err != nil {
			t.Fatal(err)
		}
	}
}

// readCountingFS counts whole-file reads of checkpoints and WAL segments.
type readCountingFS struct {
	wal.OSFS
	checkpoints, segments atomic.Int64
}

func (c *readCountingFS) note(name string) {
	base := filepath.Base(name)
	if _, ok := store.ParseCheckpointName(base); ok {
		c.checkpoints.Add(1)
	}
	if _, ok := wal.ParseSegmentName(base); ok {
		c.segments.Add(1)
	}
}

func (c *readCountingFS) ReadFile(name string) ([]byte, error) {
	c.note(name)
	return c.OSFS.ReadFile(name)
}

func (c *readCountingFS) Map(name string) ([]byte, func() error, error) {
	c.note(name)
	return c.OSFS.Map(name)
}

// Promotion is a role flip of the store the standby already runs: at
// 50 000 hashes it reads no checkpoint and no segment (so replays
// nothing), and — with writes hammered through the Guard for the whole of
// it — every acked write is in the promoted node's WAL: none got in ahead
// of the journal. At the parent the node was a primary with no journal for
// the whole of the second OpenDurable.
func TestPromotionFlipsRoleWithoutRereading(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	bigState(t, p.w.engine, 50_000)
	fs := &readCountingFS{}
	r := newReplicaFixtureOpts(t, p.server.URL, nil, store.DurableOptions{FS: fs, Fsync: wal.SyncNone})
	startBootstrapped(t, r)
	rng := rand.New(rand.NewSource(47))
	mutateN(t, p.w.engine, rng, 40)
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	if got := r.w.tracker.Paragraphs().Stats().DistinctHashes; got < 50_000 {
		t.Fatalf("standby holds %d hashes, want >= 50000", got)
	}

	var (
		mu    sync.Mutex
		acked []tdm.Tag
		next  atomic.Int64
	)
	guarded := Guard(r.node, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		tag := tdm.Tag(fmt.Sprintf("user:hammer%d", next.Add(1)))
		if err := r.w.engine.AllocateTag("user", tag); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mu.Lock()
		acked = append(acked, tag)
		mu.Unlock()
	}), t.Logf)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				guarded.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/observe", nil))
			}
		}()
	}

	replayedBefore := r.replica.Durable().Stats().Recovery.RecordsReplayed
	fs.checkpoints.Store(0)
	fs.segments.Store(0)
	durable, term, err := r.replica.Promote()
	ckptReads, segReads := fs.checkpoints.Load(), fs.segments.Load()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "writes acked on the promoted node", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 100
	})
	close(stop)
	wg.Wait()

	if term != 1 || durable != r.replica.Durable() {
		t.Errorf("Promote = store %p at term %d, want the standby's own store %p at term 1", durable, term, r.replica.Durable())
	}
	if ckptReads != 0 || segReads != 0 {
		t.Errorf("promotion read %d checkpoint files and %d segments, want 0 and 0", ckptReads, segReads)
	}
	if got := durable.Stats().Recovery.RecordsReplayed; got != replayedBefore {
		t.Errorf("promotion replayed %d records", got-replayedBefore)
	}

	// What the WAL holds is what a recovery of a copy of the directory
	// sees; no final checkpoint runs, so an acked write the journal never
	// saw stays missing.
	if err := durable.Sync(); err != nil {
		t.Fatal(err)
	}
	w2 := newWorld(t)
	d2, err := store.OpenDurable(store.DurableOptions{Dir: copyDir(t, r.dir), Fsync: wal.SyncNone}, w2.tracker, w2.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	missing := 0
	for _, tag := range acked {
		if _, ok := w2.registry.TagOwner(tag); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d writes acked during and after promotion are not in the promoted node's WAL", missing, len(acked))
	}
}

// copyDir copies the regular files of src into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// Bit rot in a sealed streamed segment is found by the standby's own
// scrubber and healed with no operator: the segment is quarantined, the
// state — still whole in memory — is re-covered by a checkpoint at the next
// segment boundary, and a restart over the directory resumes instead of
// starting over.
func TestStandbyScrubHealsBitRot(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	fs := faultinject.NewMemFS(3)
	r := memStandby(t, p.server.URL, fs, store.DurableOptions{ScrubEvery: 10 * time.Millisecond})
	startBootstrapped(t, r)
	rng := rand.New(rand.NewSource(53))
	roll := func() { // the primary seals a segment; the standby follows it over
		t.Helper()
		mutateN(t, p.w.engine, rng, 40)
		waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
		if err := p.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "rollover", func() bool { return caughtUp(p, r) })
	}
	roll()
	mutateN(t, p.w.engine, rng, 10) // the standby now stands mid-segment
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	d := r.replica.Durable()
	before := d.Stats().Checkpoints
	sealed := segmentFiles(t, fs, r.dir)[0]
	if err := fs.FlipByte(filepath.Join(r.dir, wal.SegmentName(sealed)), wal.HeaderSize+12, 0x40); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "scrub quarantine", func() bool { return d.Stats().Scrub.Quarantines >= 1 })
	roll()
	waitFor(t, 10*time.Second, "covering checkpoint", func() bool { return d.Stats().Checkpoints > before })

	mutateN(t, p.w.engine, rng, 20)
	waitFor(t, 10*time.Second, "catch-up after the repair", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	if got, want := d.StateDigest(), p.durable.StateDigest(); got != want {
		t.Errorf("standby digest %+v, primary %+v", got, want)
	}
	if st := r.replica.Status(); st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1 (the covering checkpoint heals in place)", st.Bootstraps)
	}
	for _, idx := range segmentFiles(t, fs, r.dir) {
		if idx <= sealed {
			t.Errorf("segment %d at or below the quarantined one survived the covering checkpoint", idx)
		}
	}

	r.shutdown()
	r2 := memStandby(t, p.server.URL, fs, store.DurableOptions{})
	r2.replica.Start()
	waitFor(t, 10*time.Second, "resume", func() bool { return caughtUp(p, r2) })
	assertStateMatch(t, p, r2)
	if b := r2.replica.Status().Bootstraps; b != 0 {
		t.Errorf("restart over the healed directory re-bootstrapped %d times, want 0", b)
	}
}

// A crash between the quarantine and the covering checkpoint leaves a hole
// the follower cannot prove whole: it starts over from a snapshot rather
// than replaying around it.
func TestStandbyWithHoleRebootstraps(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	fs := faultinject.NewMemFS(5)
	r := memStandby(t, p.server.URL, fs, store.DurableOptions{})
	startBootstrapped(t, r)
	rng := rand.New(rand.NewSource(59))
	mutateN(t, p.w.engine, rng, 40)
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	if err := p.durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutateN(t, p.w.engine, rng, 40)
	waitFor(t, 10*time.Second, "catch-up in the second segment", func() bool { return caughtUp(p, r) })
	r.replica.Stop()
	if n, err := r.replica.Durable().ScrubPass(); err != nil || n != 0 {
		t.Fatalf("clean scrub pass = %d corruptions, %v", n, err)
	}
	sealed := segmentFiles(t, fs, r.dir)[0]
	if err := fs.FlipByte(filepath.Join(r.dir, wal.SegmentName(sealed)), wal.HeaderSize+12, 0x40); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.replica.Durable().ScrubPass(); n != 1 {
		t.Fatalf("scrub pass over the flipped segment found %d corruptions, want 1", n)
	}
	// "Crash": the store is abandoned mid-segment, before any boundary
	// let the deferred checkpoint run.

	r2 := memStandby(t, p.server.URL, fs, store.DurableOptions{})
	if pos := r2.replica.Status().Position; pos != (wal.Pos{}).String() {
		t.Fatalf("follower over a directory with a hole resumes at %s, want the zero position", pos)
	}
	r2.replica.Start()
	waitFor(t, 10*time.Second, "re-bootstrap", func() bool { return caughtUp(p, r2) })
	assertStateMatch(t, p, r2)
	if b := r2.replica.Status().Bootstraps; b != 1 {
		t.Errorf("bootstraps = %d, want 1", b)
	}
}

// A full disk on a standby is a primary's full disk: spare checkpoints and
// covered segments are pruned and the batch retried, the stream never
// stops.
func TestStandbyPrunesOnDiskFull(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	fs := faultinject.NewMemFS(7)
	r := memStandby(t, p.server.URL, fs, store.DurableOptions{KeepCheckpoints: 3})
	startBootstrapped(t, r)
	d := r.replica.Durable()
	rng := rand.New(rand.NewSource(61))
	// Two rollovers, a standby checkpoint at each: spares accumulate.
	for i := 0; i < 2; i++ {
		mutateN(t, p.w.engine, rng, 40)
		waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
		if err := d.Checkpoint(); err != nil { // mid-segment: due at the next boundary
			t.Fatal(err)
		}
		before := d.Stats().Checkpoints
		if err := p.durable.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "standby checkpoint at the rollover", func() bool { return d.Stats().Checkpoints > before })
	}
	if n := checkpointFiles(t, fs, r.dir); n != 3 {
		t.Fatalf("%d checkpoint files before the disk fills, want 3", n)
	}

	fs.SetCapacity(fs.Used() + 64) // the next batch fits only in what the spares hold
	mutateN(t, p.w.engine, rng, 8)
	waitFor(t, 10*time.Second, "catch-up on the pruned disk", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	if n := checkpointFiles(t, fs, r.dir); n != 1 {
		t.Errorf("%d checkpoint files after ENOSPC, want 1 (spares pruned)", n)
	}
	st := d.Stats()
	if st.Disk.Degraded || st.Disk.Recoveries != 0 {
		t.Errorf("disk state after a healed ENOSPC = %+v, want never degraded", st.Disk)
	}
	if b := r.replica.Status().Bootstraps; b != 1 {
		t.Errorf("bootstraps = %d, want 1", b)
	}
}

// A dying disk degrades a standby as it does a primary — and, fail-open or
// not, the standby applies no frame it could not write. When the disk
// heals the probe clears the state and the stream resumes from where it
// stood, over a tail with the torn bytes cut off.
func TestStandbyDegradesOnEIOAndHeals(t *testing.T) {
	t.Parallel()
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
			fs := faultinject.NewMemFS(11)
			r := memStandby(t, p.server.URL, fs, store.DurableOptions{FailOpen: failOpen})
			startBootstrapped(t, r)
			d := r.replica.Durable()
			rng := rand.New(rand.NewSource(67))
			mutateN(t, p.w.engine, rng, 40)
			waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
			pos, state := r.replica.Status().Position, export(t, r.w.tracker, r.w.registry)

			fs.FailWritesAfter(7) // the next batch tears 7 bytes in
			mutateN(t, p.w.engine, rng, 40)
			waitFor(t, 10*time.Second, "degraded, round failed", func() bool {
				return d.Stats().Disk.Degraded && !r.replica.Status().Connected
			})
			st := d.Stats()
			if st.Disk.Cause != "eio" || st.Disk.DroppedRecords != 0 {
				t.Errorf("disk state = %+v, want eio with nothing dropped", st.Disk)
			}
			if got := r.replica.Status().Position; got != pos {
				t.Errorf("position moved to %s on a dead disk, want %s", got, pos)
			}
			if !bytes.Equal(export(t, r.w.tracker, r.w.registry), state) {
				t.Error("standby applied frames it could not write")
			}

			fs.ClearWriteError()
			waitFor(t, 10*time.Second, "healed and caught up", func() bool {
				return !d.Stats().Disk.Degraded && caughtUp(p, r)
			})
			assertStateMatch(t, p, r)
			if st := d.Stats(); st.Disk.Recoveries != 1 {
				t.Errorf("disk recoveries = %d, want 1", st.Disk.Recoveries)
			}
			if b := r.replica.Status().Bootstraps; b != 1 {
				t.Errorf("bootstraps = %d, want 1 (resume from the position, not a fresh snapshot)", b)
			}
			for _, idx := range segmentFiles(t, fs, r.dir) {
				if _, _, err := wal.VerifySegmentFile(fs, r.dir, idx, 0); err != nil {
					t.Errorf("segment %d after the repair: %v", idx, err)
				}
			}
		})
	}
}

// A crash at any write of a follow + checkpoint + rollover sequence leaves
// a directory the follower either resumes from or, unable to prove it
// whole, re-bootstraps over; both end byte-equal to the primary.
func TestStandbyCrashSweep(t *testing.T) {
	t.Parallel()
	p := newPrimaryFixture(t, store.DurableOptions{Fsync: wal.SyncNone})
	rng := rand.New(rand.NewSource(71))
	resumed, restarted := 0, 0
	for n := 1; n <= 12; n++ {
		fs := faultinject.NewMemFS(int64(n))
		fs.SetTornWrites(true)
		fs.CrashAfterWrites(n)
		open := func() *replicaFixture {
			w := newWorld(t)
			node, err := NewNode(NodeOptions{Role: RoleReplica, Primary: p.server.URL})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := OpenReplica(node, w.engine, ReplicaOptions{
				Durable:      store.DurableOptions{Dir: "/standby", FS: fs, Logf: t.Logf},
				PollWait:     20 * time.Millisecond,
				RetryBackoff: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("crash at write %d: open: %v", n, err)
			}
			return &replicaFixture{w: w, node: node, replica: rep, dir: "/standby"}
		}
		r := open()
		r.replica.Start()
		// The script: stream, ask for a checkpoint, roll over (where it is
		// taken), stream on. Somewhere in it write n kills the machine.
		for step := 0; step < 4 && !fs.Crashed(); step++ {
			mutateN(t, p.w.engine, rng, 8)
			waitFor(t, 10*time.Second, "catch-up or crash", func() bool { return fs.Crashed() || caughtUp(p, r) })
			r.replica.Durable().Checkpoint() //nolint:errcheck
			if err := p.durable.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "rollover or crash", func() bool { return fs.Crashed() || caughtUp(p, r) })
		}
		if !fs.Crashed() {
			t.Fatalf("write %d never happened: the script is shorter than the sweep", n)
		}
		r.replica.Stop() // the old process is gone; its store is never closed
		fs.Crash()

		r2 := open()
		if r2.replica.Status().Position == (wal.Pos{}).String() {
			restarted++
		} else {
			resumed++
		}
		r2.replica.Start()
		waitFor(t, 10*time.Second, fmt.Sprintf("recovery after a crash at write %d", n), func() bool { return caughtUp(p, r2) })
		if want, got := export(t, p.w.tracker, p.w.registry), export(t, r2.w.tracker, r2.w.registry); !bytes.Equal(want, got) {
			t.Errorf("crash at write %d: recovered standby differs from the primary", n)
		}
		r2.shutdown()
	}
	if resumed == 0 || restarted == 0 {
		t.Errorf("sweep resumed %d times and re-bootstrapped %d: both outcomes should occur", resumed, restarted)
	}
}

// A directory written by the parent commit's standby (PR 23: its own
// mirror, its own checkpoints) opens as a follower: same position, no
// bootstrap, same state, and the stream continues byte-identically.
func TestCrossVersionStandbyFixture(t *testing.T) {
	t.Parallel()
	fixture := filepath.Join("testdata", "pr23-standby")
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(data))
	}
	wantPos, wantDigest := read("POSITION"), read("DIGEST")

	// The primary side of the fixture is its directory as kill -9 left it.
	pdir := copyDir(t, filepath.Join(fixture, "primary"))
	pw := newWorld(t)
	durable, err := store.OpenDurable(store.DurableOptions{Dir: pdir, Fsync: wal.SyncNone}, pw.tracker, pw.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	pw.engine.SetJournal(durable)
	pnode, err := NewNode(NodeOptions{Role: RolePrimary, TermFile: filepath.Join(pdir, "TERM")})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(pnode, PrimaryOptions{MaxWait: time.Second}, t.Logf)
	svc.SetPrimary(NewPrimary(pnode, durable, PrimaryOptions{MaxWait: time.Second, Logf: t.Logf}))
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	p := &primaryFixture{w: pw, durable: durable, node: pnode, svc: svc, server: server, dir: pdir}

	r := newReplicaFixture(t, server.URL, copyDir(t, filepath.Join(fixture, "standby")), nil)
	if got := r.replica.Status().Position; got != wantPos {
		t.Fatalf("follower over the PR 23 standby directory stands at %s, want %s", got, wantPos)
	}
	if got := fmt.Sprintf("%016x", r.replica.Durable().StateDigest().Combined); got != wantDigest {
		t.Fatalf("state digest %s, recorded %s", got, wantDigest)
	}
	if term := r.node.Term(); term != 3 {
		t.Errorf("term = %d, want the fixture's 3", term)
	}

	r.replica.Start()
	rng := rand.New(rand.NewSource(73))
	mutateN(t, pw.engine, rng, 60)
	waitFor(t, 10*time.Second, "catch-up", func() bool { return caughtUp(p, r) })
	assertStateMatch(t, p, r)
	assertBytePrefix(t, pdir, r.dir)
	if b := r.replica.Status().Bootstraps; b != 0 {
		t.Errorf("bootstraps = %d, want 0", b)
	}
}

// errors.Is sees wal.ErrDiverged through the store's wrapping, so the
// stream loop's one test for "start over" cannot rot silently.
func TestFollowErrorsWrapErrDiverged(t *testing.T) {
	t.Parallel()
	fs := faultinject.NewMemFS(1)
	w := newWorld(t)
	d, err := store.OpenFollower(store.DurableOptions{Dir: "/f", FS: fs}, w.tracker, w.registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	frame := wal.EncodeFrame(wal.Record{Type: 0xEE, Data: []byte("no such record type")})
	if _, _, err := d.Follow(wal.Pos{Segment: 2, Offset: 40}, frame); !errors.Is(err, wal.ErrDiverged) {
		t.Errorf("Follow at a position that is not the end = %v, want ErrDiverged", err)
	}
	if _, _, err := d.Follow(wal.Pos{Segment: 2, Offset: wal.HeaderSize}, frame); !errors.Is(err, wal.ErrDiverged) {
		t.Errorf("Follow of a record that cannot be applied = %v, want ErrDiverged", err)
	}
}
