package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

var testEpoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// world is one complete engine stack with a fake audit clock at testEpoch.
type world struct {
	clk      *clock.Fake
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	engine   *policy.Engine
}

func newWorld(t testing.TB) *world {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 3},
		Tpar:        0.3,
		Tdoc:        0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(testEpoch)
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLogWithClock(clk))
	if err := registry.RegisterService("alpha", tdm.NewTagSet("ta"), tdm.NewTagSet("ta")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("bravo", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		t.Fatal(err)
	}
	return &world{clk: clk, tracker: tracker, registry: registry, engine: engine}
}

// export captures comparable state bytes: each database's snapshot (a pure
// function of its logical contents) and its digest (maintained
// incrementally, independent of the codec), then the registry and the
// audit log — an image's sections without its capture time and WAL epoch.
func export(t testing.TB, w *world) []byte {
	t.Helper()
	var out []byte
	for _, db := range []*index.DB{w.tracker.Paragraphs(), w.tracker.Documents()} {
		out, _ = db.AppendSnapshot(out)
		out = fmt.Appendf(out, "%+v", db.Digest())
	}
	for _, v := range []interface{}{w.registry.Export(), w.registry.Audit().Entries()} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// testOp is one deterministic mutation applicable to any engine.
type testOp struct {
	name string
	run  func(e *policy.Engine) error
}

var opTexts = []string{
	"the quarterly revenue forecast was revised downwards on friday",
	"launch codes and rollout schedule for the atlas project",
	"meeting notes from the security review of the billing system",
	"customer escalation about data residency in the eu region",
	"draft press release for the upcoming browserflow launch",
	"performance numbers from the winnowing benchmark last night",
}

var opSegs = []segment.ID{"alpha/doc#p0", "alpha/doc#p1", "alpha/doc#p2", "alpha/notes#p0"}

// genOps derives a deterministic mutation stream from rng covering every
// journalled record type: singular/document/batched observations, tag
// suppression, custom tag allocation and labelling, privilege changes and
// decision overrides.
func genOps(rng *rand.Rand, n int) []testOp {
	svcFor := func(i int) string {
		if i%3 == 0 {
			return "bravo"
		}
		return "alpha"
	}
	ops := make([]testOp, 0, n)
	for len(ops) < n {
		switch k := rng.Intn(20); {
		case k < 8: // singular paragraph observation
			seg := opSegs[rng.Intn(len(opSegs))]
			svc := svcFor(rng.Intn(9))
			text := opTexts[rng.Intn(len(opTexts))]
			ops = append(ops, testOp{
				name: fmt.Sprintf("observe %s in %s", seg, svc),
				run: func(e *policy.Engine) error {
					_, err := e.ObserveEdit(seg, svc, text)
					return err
				},
			})
		case k < 10: // whole-document observation
			text := opTexts[rng.Intn(len(opTexts))] + " " + opTexts[rng.Intn(len(opTexts))]
			ops = append(ops, testOp{
				name: "observe document",
				run: func(e *policy.Engine) error {
					_, err := e.ObserveDocumentEdit("alpha/doc", "alpha", text)
					return err
				},
			})
		case k < 14: // batched flush
			count := 2 + rng.Intn(2)
			var segs []segment.ID
			var texts []string
			for i := 0; i < count; i++ {
				segs = append(segs, opSegs[rng.Intn(len(opSegs))])
				texts = append(texts, opTexts[rng.Intn(len(opTexts))])
			}
			ops = append(ops, testOp{
				name: "observe batch",
				run: func(e *policy.Engine) error {
					items := make([]disclosure.BatchObservation, len(segs))
					for i := range segs {
						fp, err := e.Tracker().Fingerprint(texts[i])
						if err != nil {
							return err
						}
						items[i] = disclosure.BatchObservation{
							Seg:         segs[i],
							FP:          fp,
							Granularity: segment.GranularityParagraph,
						}
					}
					_, err := e.ObserveBatchFP("alpha", items)
					return err
				},
			})
		case k < 15: // suppression (valid once the segment carries "ta")
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: fmt.Sprintf("suppress ta on %s", seg),
				run: func(e *policy.Engine) error {
					return e.Suppress("auditor", seg, "ta", "reviewed and cleared")
				},
			})
		case k < 16: // custom tag allocation (duplicate allocations error)
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "allocate " + string(tag),
				run:  func(e *policy.Engine) error { return e.AllocateTag("user", tag) },
			})
		case k < 17: // attach a custom tag
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: "tag segment",
				run:  func(e *policy.Engine) error { return e.AddTagToSegment("user", seg, tag) },
			})
		case k < 18: // privilege grant
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "grant",
				run:  func(e *policy.Engine) error { return e.GrantTag("user", "bravo", tag) },
			})
		case k < 19: // privilege revoke
			tag := tdm.Tag(fmt.Sprintf("user:proj%d", rng.Intn(3)))
			ops = append(ops, testOp{
				name: "revoke",
				run:  func(e *policy.Engine) error { return e.RevokeTag("user", "bravo", tag) },
			})
		default: // decision override (audit-only record)
			seg := opSegs[rng.Intn(len(opSegs))]
			ops = append(ops, testOp{
				name: "override",
				run: func(e *policy.Engine) error {
					e.Override("boss", seg, "bravo", "business need")
					return nil
				},
			})
		}
	}
	return ops
}

func openDurableForTest(t testing.TB, fs wal.FS, pol wal.SyncPolicy, w *world) *Durable {
	t.Helper()
	d, err := OpenDurable(DurableOptions{
		Dir:   "/data",
		FS:    fs,
		Fsync: pol,
	}, w.tracker, w.registry)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// The durable store's tests are scripts over one crash-model rig. The
// reference is the acknowledged ops replayed on a journal-less engine:
// storeRig keeps the ops the live state holds (every op acknowledged, and
// every op whose mutation was applied before its journal append failed),
// each with the time it ran at, and how long a prefix of them a crash
// cannot take. After every op the live state must be the reference's
// (compared by digest, registry and audit trail); after a crash and
// recovery, its export must be the export of some prefix at least that
// long — at fsync=always, every acknowledged op. A follower fed from the
// primary's ReadFrom holds the primary's state once caught up, and its
// Position() never runs ahead of what it applied.
type storeRig struct {
	t       *testing.T
	fs      *faultinject.MemFS
	opts    DurableOptions
	rng     *rand.Rand
	stream  []testOp
	w       *world
	d       *Durable
	ref     *world          // applied, run on a journal-less engine
	base    []byte          // the image ref started from (nil: empty)
	applied []testOp        // in the order they ran
	at      []time.Duration // when each ran
	durable int             // applied[:durable] survive any crash
	hole    bool            // records were lost with no checkpoint covering them
	lastErr error           // of the last op or journal probe
	elapsed time.Duration
	crashes int

	fw      *world // the follower, when one runs
	fd      *Durable
	partial bool // the primary's journal lacks a mutation its state holds
}

func newStoreRig(t *testing.T, seed int64, opts DurableOptions) *storeRig {
	t.Helper()
	opts.Dir = "/data"
	r := &storeRig{t: t, fs: faultinject.NewMemFS(seed), opts: opts, rng: rand.New(rand.NewSource(seed)), ref: newWorld(t)}
	r.opts.FS = r.fs
	r.stream = genOps(r.rng, 400)
	r.w, r.d = r.open()
	t.Cleanup(func() {
		for _, d := range []*Durable{r.d, r.fd} {
			if d != nil {
				d.Close() //nolint:errcheck
			}
		}
	})
	return r
}

// runStore runs script on a fresh rig.
func runStore(t *testing.T, opts DurableOptions, script string) *storeRig {
	t.Helper()
	r := newStoreRig(t, 1, opts)
	r.run(script)
	return r
}

// open recovers the primary's directory into a fresh world whose clock
// reads the rig's time.
func (r *storeRig) open() (*world, *Durable) {
	r.t.Helper()
	w := newWorld(r.t)
	w.clk.Advance(r.elapsed)
	opts := r.opts
	opts.Clock = w.clk
	d, err := OpenDurable(opts, w.tracker, w.registry)
	if err != nil && r.fs.Crashed() { // the armed crash fired in recovery
		r.reboot()
		return r.open()
	}
	if err != nil {
		r.t.Fatalf("recovery: %v", err)
	}
	w.engine.SetJournal(d)
	return w, d
}

// run applies ops, space-separated operations:
//
//	ops:N        the next N ops of the genOps stream, through the engine
//	obs          one observe of a fresh segment (one record)
//	jrn          an empty audit record straight to the journal: a probe of
//	             its error that changes no state
//	tick         advance every clock a second
//	ckpt, rot    Checkpoint; rotate the WAL
//	close        Close, then recover
//	crash        power loss, then recover; crashw:N crash at the Nth write
//	decay:K      flip a byte of the K-th sealed segment; decayckpt the same
//	             in the oldest checkpoint
//	q:K          quarantine the K-th sealed segment with no healing
//	             checkpoint
//	scrub, probe ScrubPass; ProbeRecover
//	eio, full:N, ro, heal   a dead disk, N bytes of room, a read-only
//	             remount, or a healthy disk again
//	standby      open a follower bootstrapped from the primary
//	stream       feed the follower everything the primary's log holds
//	poison       feed it a record that cannot apply
//	promote      promote it: it is the rig's primary from then on
func (r *storeRig) run(script string) {
	r.t.Helper()
	for _, op := range strings.Fields(script) {
		name, arg, _ := strings.Cut(op, ":")
		n, _ := strconv.Atoi(arg)
		r.apply(name, n)
		if r.fs.Crashed() {
			r.crash()
		}
		r.check(op)
	}
}

func (r *storeRig) apply(name string, n int) {
	r.t.Helper()
	switch name {
	case "ops":
		for i := 0; i < n && !r.fs.Crashed(); i++ {
			r.op(r.stream[0])
			r.stream = r.stream[1:]
		}
	case "obs":
		seg, text := segment.ID(fmt.Sprintf("alpha/fresh%d#p0", len(r.applied))), fmt.Sprintf("%s, revision %d", opTexts[0], len(r.applied))
		r.op(testOp{name: "observe " + string(seg), run: func(e *policy.Engine) error {
			_, err := e.ObserveEdit(seg, "alpha", text)
			return err
		}})
	case "jrn":
		r.lastErr = r.d.AuditAppend(nil)
	case "tick":
		r.elapsed += time.Second
		for _, w := range []*world{r.w, r.ref, r.fw} {
			if w != nil {
				w.clk.Advance(time.Second)
			}
		}
	case "ckpt", "probe", "scrub":
		// What each promises when it returns no error: a checkpoint covers
		// the live state; so does a probe that heals a degraded store, and
		// a scrub that pulled a file out of the recovery path.
		promise, quarantines := true, r.d.Stats().Scrub.Quarantines
		switch name {
		case "ckpt":
			r.lastErr = r.d.Checkpoint()
		case "probe":
			var healed bool
			promise, _ = r.d.Degraded()
			if healed, r.lastErr = r.d.ProbeRecover(); healed != (r.lastErr == nil) {
				r.t.Fatalf("ProbeRecover = %v, %v", healed, r.lastErr)
			}
		default:
			_, r.lastErr = r.d.ScrubPass()
			promise = r.d.Stats().Scrub.Quarantines > quarantines
		}
		if promise && r.lastErr == nil && !r.fs.Crashed() {
			r.covered()
		}
	case "rot":
		if _, err := r.d.WAL().Rotate(); err != nil && !r.fs.Crashed() {
			r.t.Fatal(err)
		}
	case "close":
		if r.lastErr = r.d.Close(); r.lastErr == nil {
			r.covered()
		}
		r.recover()
	case "crash":
		r.crash()
	case "crashw":
		r.fs.SetTornWrites(true)
		r.fs.SetBitFlipProb(0.3)
		r.fs.CrashAfterWrites(n)
	case "decay", "q":
		idx := r.d.WAL().SealedSegments()[n]
		if name == "q" {
			if err := r.d.WAL().Quarantine(idx); err != nil {
				r.t.Fatal(err)
			}
		} else if err := r.fs.FlipByte(filepath.Join("/data", wal.SegmentName(idx)), wal.HeaderSize+5, 0x20); err != nil {
			r.t.Fatal(err)
		}
		r.hole = true
	case "decayckpt":
		if err := r.fs.FlipByte(filepath.Join("/data", r.checkpoints()[0]), 64, 0x08); err != nil {
			r.t.Fatal(err)
		}
	case "eio":
		r.fs.FailWritesAfter(0)
	case "full":
		r.fs.SetCapacity(r.fs.Used() + int64(n))
	case "ro":
		r.fs.SetReadOnly(true)
	case "heal":
		r.fs.ClearWriteError()
		r.fs.SetCapacity(0)
		r.fs.SetReadOnly(false)
	case "standby":
		r.standby()
	case "stream":
		r.follow()
	case "poison":
		r.poison()
	case "promote":
		if err := r.fd.Promote(func() error { return nil }); err != nil {
			r.t.Fatalf("promote: %v", err)
		}
		r.fw.engine.SetJournal(r.fd)
		r.d.Close() //nolint:errcheck
		r.w, r.d, r.fw, r.fd = r.fw, r.fd, nil, nil
		r.opts.Dir = "/standby"
		if r.opts.Fsync != wal.SyncAlways {
			r.durable = 0
		}
	default:
		r.t.Fatalf("script: unknown op %q", name)
	}
}

// op runs one op on the live engine and, if its mutation was applied,
// on the reference.
func (r *storeRig) op(op testOp) {
	r.t.Helper()
	dropped := r.d.Stats().Disk.DroppedRecords
	err := op.run(r.w.engine)
	r.lastErr = err
	if err != nil && !errors.Is(err, policy.ErrJournal) {
		return // refused, state unchanged
	}
	if err := op.run(r.ref.engine); err != nil {
		r.t.Fatalf("op %d (%s) fails on the reference: %v", len(r.applied), op.name, err)
	}
	r.applied, r.at = append(r.applied, op), append(r.at, r.elapsed)
	degraded, _ := r.d.Degraded()
	switch {
	case err != nil || r.d.Stats().Disk.DroppedRecords != dropped:
		r.partial = true
	case r.opts.Fsync == wal.SyncAlways && !degraded && !r.fs.Crashed() && r.durable == len(r.applied)-1:
		r.durable = len(r.applied) // an override journals best-effort: a crash under it is no error
	}
}

// covered notes a checkpoint of the whole live state.
func (r *storeRig) covered() { r.durable, r.hole, r.partial = len(r.applied), false, false }

// crash is power loss, then recovery on a disk with no fault.
func (r *storeRig) crash() {
	r.t.Helper()
	r.reboot()
	if r.fd != nil { // the follower shares the disk: it goes down too
		r.fw, r.fd = nil, nil
	}
	r.recover()
}

// reboot is power loss and restart: the disk keeps what the MemFS's crash
// semantics keep, and what survived is on the medium, so durable; the disk
// has no fault.
func (r *storeRig) reboot() {
	r.t.Helper()
	r.crashes++
	r.fs.Crash()
	for _, dir := range []string{"/data", "/standby"} {
		names, _ := r.fs.ReadDirNames(dir)
		for _, name := range names {
			f, err := r.fs.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
			if err != nil {
				r.t.Fatal(err)
			}
			f.Sync()  //nolint:errcheck
			f.Close() //nolint:errcheck
		}
	}
	r.apply("heal", 0)
	r.fs.SetTornWrites(false)
	r.fs.SetBitFlipProb(0)
}

// recover opens the primary's directory: the recovered state is the
// export of a prefix of the applied ops no shorter than the durable one,
// unless records were lost past any checkpoint, when the reference
// restarts from what was recovered.
func (r *storeRig) recover() {
	r.t.Helper()
	r.w, r.d = r.open()
	got := export(r.t, r.w)
	if r.hole {
		r.rebase()
		return
	}
	k := -1
	r.replay(len(r.applied), func(n int, w *world) {
		if n >= r.durable && bytes.Equal(export(r.t, w), got) {
			k = n
		}
	})
	if k < 0 {
		r.t.Fatalf("recovered state is no prefix of the %d applied ops at least %d long", len(r.applied), r.durable)
	}
	r.applied, r.at, r.durable, r.partial = r.applied[:k], r.at[:k], k, false
	r.ref = r.replay(k, nil)
}

// replay runs the first n applied ops, each at its time, on a world
// restored from base, calling each (when not nil) with the world after
// every prefix.
func (r *storeRig) replay(n int, each func(n int, w *world)) *world {
	r.t.Helper()
	w := newWorld(r.t)
	if r.base != nil {
		if _, err := RestoreBytes("base", r.base, w.tracker, w.registry); err != nil {
			r.t.Fatal(err)
		}
	}
	var now time.Duration
	for i := 0; ; i++ {
		if each != nil {
			each(i, w)
		}
		if i == n {
			w.clk.Advance(r.elapsed - now)
			return w
		}
		w.clk.Advance(r.at[i] - now)
		now = r.at[i]
		r.applied[i].run(w.engine) //nolint:errcheck
	}
}

// rebase restarts the reference from the live state: records were lost
// that no checkpoint covered, so no prefix describes what recovered.
func (r *storeRig) rebase() {
	r.t.Helper()
	img, err := CaptureBytes(r.w.tracker, r.w.registry, 0, testEpoch)
	if err != nil {
		r.t.Fatal(err)
	}
	r.base, r.applied, r.at, r.durable, r.hole, r.partial = img, nil, nil, 0, false, false
	if r.ref = r.replay(0, nil); !bytes.Equal(export(r.t, r.ref), export(r.t, r.w)) {
		r.t.Fatal("rebase: a restored image exports differently")
	}
}

func (r *storeRig) checkpoints() []string {
	names, _ := r.fs.ReadDirNames("/data")
	return slices.DeleteFunc(names, func(n string) bool { _, ok := ParseCheckpointName(n); return !ok })
}

// standby opens a follower on its own directory and bootstraps it from an
// image of the primary.
func (r *storeRig) standby() {
	r.t.Helper()
	if r.fd != nil {
		r.fd.Close() //nolint:errcheck
	}
	r.fw = newWorld(r.t)
	r.fw.clk.Advance(r.elapsed)
	opts := r.opts
	opts.Dir, opts.Clock = "/standby", r.fw.clk
	fd, err := OpenFollower(opts, r.fw.tracker, r.fw.registry, nil)
	if err != nil {
		r.t.Fatalf("OpenFollower: %v", err)
	}
	r.fd = fd
	if fd.Position().IsZero() {
		r.bootstrap()
	}
}

// bootstrap replaces what the follower holds with an image of the primary.
func (r *storeRig) bootstrap() {
	r.t.Helper()
	img, _, err := r.d.CaptureImage(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.fd.Bootstrap(img); err != nil {
		r.t.Fatalf("Bootstrap: %v", err)
	}
}

// follow feeds the follower from its Position through the primary's
// ReadFrom, a small batch at a time, rolling onto a new segment as its own
// step the way the stream loop does.
func (r *storeRig) follow() {
	r.t.Helper()
	for {
		pos := r.fd.Position()
		frames, n, start, _, err := r.d.WAL().ReadFrom(pos, 200)
		if err != nil {
			r.t.Fatalf("ReadFrom(%v): %v", pos, err)
		}
		if n == 0 && start == pos {
			return
		}
		applied, next, err := r.fd.Follow(start, frames)
		if err != nil || applied != n || r.fd.Position() != next {
			r.t.Fatalf("Follow(%v) = %d of %d records, next %v, %v; Position %v", start, applied, n, next, err, r.fd.Position())
		}
	}
}

// poison feeds the follower a frame the primary never wrote, whose record
// cannot apply: Follow answers ErrDiverged and Position stays where the
// last applied record left it.
func (r *storeRig) poison() {
	r.t.Helper()
	pos := r.fd.Position()
	if _, _, err := r.fd.Follow(pos, wal.EncodeFrame(wal.Record{Type: recObserve, Data: []byte{0xff}})); !errors.Is(err, wal.ErrDiverged) {
		r.t.Fatalf("Follow of a record that cannot apply = %v, want ErrDiverged", err)
	}
	if got := r.fd.Position(); got != pos {
		r.t.Fatalf("Position after a record that did not apply = %v, want %v", got, pos)
	}
	r.bootstrap() // what a replica does on ErrDiverged
}

// check compares the live state with the reference, and a follower's,
// once it has streamed, with the primary's.
func (r *storeRig) check(op string) {
	r.t.Helper()
	if !bytes.Equal(summary(r.t, r.w), summary(r.t, r.ref)) {
		r.t.Fatalf("after %s: the live state is not the %d applied ops'", op, len(r.applied))
	}
	if r.fd != nil && op == "stream" && !r.partial && !bytes.Equal(export(r.t, r.fw), export(r.t, r.w)) {
		r.t.Fatalf("after %s: a caught-up follower's state differs from the primary's", op)
	}
}

// memoLen counts the decisions tracker's databases answer from their memos.
func memoLen(tracker *disclosure.Tracker) int {
	return tracker.Paragraphs().MemoLen() + tracker.Documents().MemoLen()
}

// summary is what check compares after every op: the tracker's digest,
// the registry and the audit trail.
func summary(t testing.TB, w *world) []byte {
	d := w.tracker.Digest()
	out := fmt.Appendf(nil, "%x %x %x", d.Combined, d.Paragraphs.Combined, d.Documents.Combined)
	for _, v := range []interface{}{w.registry.Export(), w.registry.Audit().Entries()} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestRestoreAnswersAsTheOriginal is the restore differential: an engine
// restored from the image its original captured after any prefix of an
// op stream must go on as the original does, op by op (compared by
// summary), although an image carries no decision. Verdicts that depend
// on whether a decision was cached, not on the state, fail it: a seed
// fails at a cache that keeps a decision past a change that can alter
// what Algorithm 1 answers.
func TestRestoreAnswersAsTheOriginal(t *testing.T) {
	seeds, n := 40, 40
	if testing.Short() || raceEnabled {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := genOps(rand.New(rand.NewSource(seed)), n)
		orig := newWorld(t)
		images, after := make([][]byte, n), make([][]byte, n)
		for i, op := range ops {
			img, err := CaptureBytes(orig.tracker, orig.registry, 1, testEpoch)
			if err != nil {
				t.Fatal(err)
			}
			images[i] = img
			op.run(orig.engine) //nolint:errcheck // an op may be refused; both sides must agree on it
			after[i] = summary(t, orig)
		}
	prefixes:
		for k := 1; k < n; k++ {
			w := newWorld(t)
			if _, err := RestoreBytes("prefix.bf", images[k], w.tracker, w.registry); err != nil {
				t.Fatalf("seed %d: restore after %d ops: %v", seed, k, err)
			}
			for i := k; i < n; i++ {
				ops[i].run(w.engine) //nolint:errcheck
				if !bytes.Equal(summary(t, w), after[i]) {
					t.Errorf("seed %d: restored after %d ops, the state after op %d (%s) is not the original's", seed, k, i, ops[i].name)
					break prefixes
				}
			}
		}
	}
}

// Clean shutdown: recovery loads the final checkpoint with nothing to
// replay.
func TestDurableCleanShutdownRoundTrip(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:30 close")
	if rec := r.d.Stats().Recovery; rec.CheckpointLoaded == "" || rec.RecordsReplayed != 0 {
		t.Errorf("recovery after a clean shutdown = %+v, want a checkpoint and no replay", rec)
	}
}

// Close checkpoints only what no checkpoint covers yet: a store just
// checkpointed, or reopened after a clean shutdown and never written to,
// closes without writing an image; anything appended, or replayed by
// recovery, since the newest checkpoint still gets one.
func TestCloseCheckpointsOnlyUncoveredState(t *testing.T) {
	r := runStore(t, DurableOptions{}, "obs ckpt")
	for _, step := range []struct {
		script string
		writes bool
	}{{"", false}, {"", false}, {"obs", true}, {"obs crash", true}, {"", false}} {
		r.run(step.script)
		if rec := r.d.Stats().Recovery; step.script == "" && rec.RecordsReplayed != 0 {
			t.Fatalf("recovery replayed %d records after a covering close", rec.RecordsReplayed)
		}
		before := r.checkpoints()
		if r.run("close"); slices.Equal(r.checkpoints(), before) == step.writes {
			t.Errorf("%q then close: checkpoints went from %v to %v, want one written: %v", step.script, before, r.checkpoints(), step.writes)
		}
	}
}

// Crash without any checkpoint: everything comes back from the WAL alone.
func TestDurableWALOnlyRecovery(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:6 crash")
	if rec := r.d.Stats().Recovery; rec.CheckpointLoaded != "" || rec.RecordsReplayed == 0 {
		t.Errorf("recovery = %+v, want records replayed and no checkpoint", rec)
	}
}

// Checkpoints truncate the WAL behind them and recovery replays only the
// suffix.
func TestCheckpointTruncatesAndReplaysSuffix(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:8 ckpt")
	barrier := r.d.Stats().LastCheckpointSeg
	if segs, _ := wal.ListSegments(r.fs, "/data"); len(segs) == 0 || segs[0] < barrier {
		t.Errorf("segments %v survived a checkpoint at %d", segs, barrier)
	}
	r.run("obs crash")
	if rec := r.d.Stats().Recovery; rec.CheckpointLoaded == "" || rec.RecordsReplayed != 1 {
		t.Errorf("recovery = %+v, want the checkpoint and 1 record replayed", rec)
	}
}

// Recovery leaves the registry sharing label values as the node that
// ingested the segments did: a handful of distinct labels over 200
// segments before checkpoint + WAL-suffix recovery and after it.
func TestRecoveryKeepsLabelSharing(t *testing.T) {
	r := newStoreRig(t, 11, DurableOptions{})
	observe := func(from, to int) {
		for i := from; i < to; i++ {
			svc := [2]string{"alpha", "bravo"}[i%2]
			seg, text := segment.ID(fmt.Sprintf("%s/book%d#p%d", svc, i/20, i%20)), fmt.Sprintf("%s (copy %d)", opTexts[i%len(opTexts)], i)
			r.op(testOp{name: "observe", run: func(e *policy.Engine) error { _, err := e.ObserveEdit(seg, svc, text); return err }})
		}
	}
	observe(0, 150)
	r.op(testOp{name: "suppress", run: func(e *policy.Engine) error { return e.Suppress("auditor", "alpha/book0#p0", "ta", "cleared") }})
	r.run("ckpt")
	observe(150, 200)
	distinct := r.w.registry.DistinctLabels()
	if segs := r.w.tracker.Paragraphs().Stats().Segments; distinct < 3 || distinct > 8 || segs != 200 {
		t.Fatalf("fixture: %d distinct labels over %d segments, want a handful over 200", distinct, segs)
	}
	r.run("crash")
	if rec := r.d.Stats().Recovery; rec.CheckpointLoaded == "" || rec.RecordsReplayed != 50 {
		t.Fatalf("recovery loaded %q and replayed %d records, want a checkpoint and 50", rec.CheckpointLoaded, rec.RecordsReplayed)
	}
	if got := r.w.registry.DistinctLabels(); got != distinct {
		t.Errorf("recovered registry holds %d distinct labels, the original %d", got, distinct)
	}
}

// A corrupt newest checkpoint falls back to the previous one.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:6 ckpt ckpt")
	newest := r.checkpoints()[1]
	if err := r.fs.FlipByte(filepath.Join("/data", newest), 40, 0x01); err != nil {
		t.Fatal(err)
	}
	r.run("crash")
	if rec := r.d.Stats().Recovery; rec.CorruptCheckpoints != 1 || rec.CheckpointLoaded == "" || rec.CheckpointLoaded == newest {
		t.Errorf("recovery = %+v, want the older checkpoint after one corrupt", rec)
	}
}

func TestEncryptedCheckpointRoundTrip(t *testing.T) {
	r := runStore(t, DurableOptions{Key: DeriveKey("hunter2")}, "ops:6 close")
	if r.d.Stats().Recovery.CheckpointLoaded == "" {
		t.Error("no checkpoint loaded")
	}
}

// Audit entries survive replay as they were stored: each recovered entry
// equals its original, Time included, though the recovering clock reads
// later than any of them, whether an op produced it or an override did.
func TestAuditTimestampsRestoredFromWAL(t *testing.T) {
	r := runStore(t, DurableOptions{}, "tick ops:20 tick ops:20 tick ops:20 tick")
	want := r.w.registry.Audit().Entries()
	actions := map[audit.Action]int{}
	for _, e := range want {
		actions[e.Action]++
	}
	if actions[audit.ActionOverride] == 0 || len(actions) < 3 {
		t.Fatalf("fixture: audit actions %v, want overrides and two kinds of op", actions)
	}
	r.run("crash")
	if got := r.w.registry.Audit().Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered audit trail\n%v\nwant\n%v", got, want)
	}
}

// A journal append failure surfaces as policy.ErrJournal so handlers can
// refuse to acknowledge the request.
func TestJournalFailureSurfaces(t *testing.T) {
	r := newStoreRig(t, 7, DurableOptions{})
	r.fs.CrashAfterWrites(1)
	r.run("obs")
	if !errors.Is(r.lastErr, policy.ErrJournal) {
		t.Errorf("observe during journal failure = %v, want ErrJournal", r.lastErr)
	}
}

// runCrashScenario drives a random op stream, crashes at a random write
// (torn, bit flips in what the page cache loses), recovers, and lets the
// rig hold the state to a prefix of the applied ops: at fsync=always,
// every acknowledged one.
func runCrashScenario(t *testing.T, seed int64, pol wal.SyncPolicy, withCheckpoints bool) {
	r := newStoreRig(t, seed, DurableOptions{Fsync: pol, SegmentBytes: 2048})
	r.run(fmt.Sprintf("crashw:%d", 1+r.rng.Intn(150)))
	for i := 0; i < 35 && r.crashes == 0; i++ {
		if r.run("ops:1"); withCheckpoints && r.rng.Intn(6) == 0 {
			r.run("ckpt")
		}
	}
	if r.crashes == 0 {
		r.run("crash")
	}
}

// TestCrashRecoveryProperty is the crash/corruption-injection suite: torn
// writes, partial page-cache survival and bit flips across many seeds,
// with and without checkpoints.
func TestCrashRecoveryProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		for _, withCkpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("fsync=%v/checkpoints=%v", pol, withCkpt), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= int64(seeds); seed++ {
					runCrashScenario(t, seed, pol, withCkpt)
				}
			})
		}
	}
}

// Replaying the same WAL twice cannot corrupt disclosure state: posted
// unions only grow, and re-observing identical content is a no-op for
// policy decisions.
func TestReplaySemanticIdempotence(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:20 crash")
	before, label := r.w.tracker.Paragraphs().Stats(), r.w.registry.Label("alpha/doc#p0")
	if err := r.d.replay(0); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	after, label2 := r.w.tracker.Paragraphs().Stats(), r.w.registry.Label("alpha/doc#p0")
	if after.Segments != before.Segments || after.DistinctHashes != before.DistinctHashes {
		t.Errorf("double replay changed index shape: %+v -> %+v", before, after)
	}
	if (label == nil) != (label2 == nil) || label != nil && !reflect.DeepEqual(label.Explicit().Sorted(), label2.Explicit().Sorted()) {
		t.Errorf("double replay changed the explicit label: %v -> %v", label, label2)
	}
}

func TestOpenDurableValidation(t *testing.T) {
	if _, err := OpenDurable(DurableOptions{}, nil, nil); err == nil {
		t.Error("empty Dir accepted")
	}
}

func TestCheckpointNameRoundTrip(t *testing.T) {
	for _, seg := range []uint64{0, 1, 42, 1 << 40} {
		if got, ok := parseCheckpointName(checkpointName(seg)); !ok || got != seg {
			t.Errorf("parse(%q) = (%d, %v), want (%d, true)", checkpointName(seg), got, ok, seg)
		}
	}
	for _, bad := range []string{"checkpoint-.bf", "wal-0000000000000001.log", "checkpoint-xyz.bf", "checkpoint-1.bf"} {
		if _, ok := parseCheckpointName(bad); ok {
			t.Errorf("parse(%q) accepted", bad)
		}
	}
}

// The acceptance chaos path: a sealed segment decays at rest, the scrubber
// quarantines it and checkpoints the live state, and a kill -9 right after
// loses nothing acknowledged.
func TestScrubQuarantinesDecayedSegmentNoAckedLoss(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:8 rot ops:8 rot ops:8 rot")
	victim, checkpoints := r.d.WAL().SealedSegments()[0], r.d.Stats().Checkpoints
	r.run("decay:0 scrub")
	st := r.d.Stats()
	if st.Scrub.CorruptionsFound != 1 || st.Scrub.Quarantines != 1 || st.Scrub.QuarantinedFiles != 1 || st.WAL.QuarantinedSegments != 1 || r.lastErr != nil {
		t.Fatalf("after a scrub over one decayed segment: %+v, %v", st.Scrub, r.lastErr)
	}
	if !strings.Contains(st.Scrub.LastCorruption, wal.SegmentName(victim)) || st.Checkpoints != checkpoints+1 {
		t.Fatalf("LastCorruption %q, %d checkpoints: want segment %d named and one checkpoint taken", st.Scrub.LastCorruption, st.Checkpoints-checkpoints, victim)
	}
	r.run("scrub")
	if st := r.d.Stats().Scrub; st.Passes != 2 || st.CorruptionsFound != 1 || st.FramesVerified == 0 {
		t.Fatalf("after a clean pass: %+v", st)
	}
	r.run("crash")
}

// A checkpoint image that decays at rest is quarantined and replaced.
func TestScrubQuarantinesDecayedCheckpoint(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:10 ckpt obs ckpt decayckpt scrub")
	if st := r.d.Stats(); st.Scrub.CorruptionsFound != 1 || st.Scrub.QuarantinedFiles != 1 || st.Checkpoints < 3 {
		t.Fatalf("scrub over a decayed checkpoint: %+v, %d checkpoints", st.Scrub, st.Checkpoints)
	}
}

// kill -9 between a quarantine and the checkpoint that heals it: the node
// restarts, reporting the gap; the decayed segment's records are the only
// loss.
func TestKillDuringQuarantineWindowRestarts(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:6 rot ops:6 rot ops:6 rot q:1 crash")
	if r.d.Stats().WAL.RecoveryGaps == 0 {
		t.Error("restart did not report the quarantine gap")
	}
}

// At-rest decay found at startup: recovery quarantines the segment itself
// and starts.
func TestRecoveryQuarantinesMidLogDecay(t *testing.T) {
	r := runStore(t, DurableOptions{}, "ops:6 rot ops:6 rot ops:6 rot decay:0 crash")
	if st := r.d.Stats().WAL; st.QuarantinedSegments != 1 || st.RecoveryGaps == 0 {
		t.Errorf("WAL stats %+v, want one segment quarantined and the gap", st)
	}
}

// Fail-closed: a dead disk turns appends into typed DegradedErrors, drops
// nothing, and the node resumes once a probe finds the disk healed.
func TestDiskFaultFailClosed(t *testing.T) {
	r := runStore(t, DurableOptions{ProbeEvery: time.Hour}, "ops:3 eio ops:5 probe")
	if r.lastErr == nil {
		t.Fatal("a probe of a dead disk succeeded")
	}
	r.run("jrn")
	var de *DegradedError
	if !errors.As(r.lastErr, &de) || de.Cause != "eio" || de.RetryAfter != time.Hour {
		t.Fatalf("journal on a dead disk = %v, want DegradedError(eio)", r.lastErr)
	}
	if st := r.d.Stats().Disk; !st.Degraded || st.FailOpen || st.DroppedRecords != 0 {
		t.Fatalf("Disk = %+v", st)
	}
	r.run("heal probe jrn ops:3 crash")
	if st := r.d.Stats().Disk; st.Degraded || r.lastErr != nil {
		t.Fatalf("after the heal: %+v, %v", st, r.lastErr)
	}
}

// Fail-open: verdicts keep flowing while the disk is down, the dropped
// records are counted, and the probe's checkpoint folds them back in, so a
// crash right after loses nothing.
func TestDiskFaultFailOpen(t *testing.T) {
	r := runStore(t, DurableOptions{FailOpen: true, ProbeEvery: time.Hour}, "ops:3 eio ops:6")
	if st := r.d.Stats().Disk; !st.Degraded || !st.FailOpen || st.DroppedRecords == 0 || r.lastErr != nil {
		t.Fatalf("Disk = %+v, last op %v", st, r.lastErr)
	}
	checkpoints := r.d.Stats().Checkpoints
	if r.run("heal probe"); r.lastErr != nil || r.d.Stats().Checkpoints != checkpoints+1 {
		t.Fatalf("probe after the heal: %v, %d checkpoints taken, want one", r.lastErr, r.d.Stats().Checkpoints-checkpoints)
	}
	r.run("crash")
}

// A degraded fail-open store acks mutations it does not journal, so Close
// still checkpoints, and on a healed disk the fail-open window survives.
func TestCloseWhileDegradedStillCheckpoints(t *testing.T) {
	runStore(t, DurableOptions{FailOpen: true, ProbeEvery: time.Hour}, "ops:3 ckpt eio ops:3 heal close")
}

// ENOSPC under the prune policy frees the spare checkpoint and retries the
// append before degrading.
func TestENOSPCPruneSelfRecovery(t *testing.T) {
	r := runStore(t, DurableOptions{ProbeEvery: time.Hour}, "ops:10 ckpt ckpt full:10 jrn")
	if degraded, _ := r.d.Degraded(); degraded || r.lastErr != nil {
		t.Fatalf("append did not self-recover from ENOSPC: %v", r.lastErr)
	}
}

// ENOSPC under -on-disk-full=fail degrades at once; freeing space heals it.
func TestENOSPCFailPolicy(t *testing.T) {
	r := runStore(t, DurableOptions{OnDiskFull: OnDiskFullFail, ProbeEvery: time.Hour}, "ckpt ckpt full:10 jrn")
	if de := (*DegradedError)(nil); !errors.As(r.lastErr, &de) || de.Cause != "enospc" {
		t.Fatalf("append = %v, want DegradedError(enospc)", r.lastErr)
	}
	r.run("heal probe ops:3 crash")
}

// A read-only remount degrades with cause erofs.
func TestReadOnlyRemountDegrades(t *testing.T) {
	r := runStore(t, DurableOptions{ProbeEvery: time.Hour}, "ro jrn")
	if de := (*DegradedError)(nil); !errors.As(r.lastErr, &de) || de.Cause != "erofs" {
		t.Fatalf("append = %v, want DegradedError(erofs)", r.lastErr)
	}
	r.run("heal probe ops:3")
}

// The background scrub loop runs a pass every ScrubEvery, the first one
// ScrubEvery after the store opened.
func TestBackgroundScrubLoop(t *testing.T) {
	r := runStore(t, DurableOptions{ScrubEvery: 5 * time.Millisecond}, "ops:4 rot ops:4 rot")
	for i, step := range []time.Duration{5*time.Millisecond - 1, 1, 5 * time.Millisecond} {
		r.w.clk.Advance(step)
		r.w.clk.WaitArmed(1) // the loop is waiting for its next pass
		if got := r.d.Stats().Scrub.Passes; got != int64(i) {
			t.Fatalf("pass %d: %d passes", i, got)
		}
	}
}

// Close ends a background pass that waits on its rate bound instead of
// waiting it out, and the cut-short pass is not counted.
func TestCloseEndsThrottledScrubPass(t *testing.T) {
	r := runStore(t, DurableOptions{ScrubEvery: time.Minute, ScrubRateMB: 1}, "ops:64 rot ops:64 rot")
	r.w.clk.Advance(time.Minute)
	r.w.clk.WaitArmed(1) // the pass waits on the limiter; the clock never ends that wait
	if err := r.d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r.d.Stats().Scrub; st.Passes != 0 || st.SegmentsVerified == 0 {
		t.Errorf("scrub stats %+v: want a pass cut short after verifying a segment, and not counted", st)
	}
}

// A follower fed from the primary's ReadFrom holds its state once caught
// up, through rotations and checkpoints; a record that cannot apply leaves
// its Position where it was; promoted, it is the primary, and what it
// acknowledges survives a crash.
func TestFollowerScripts(t *testing.T) {
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval} {
		t.Run(pol.String(), func(t *testing.T) {
			runStore(t, DurableOptions{Fsync: pol, SegmentBytes: 1024},
				"ops:10 standby stream ops:20 stream rot ops:5 stream ckpt ops:5 stream poison standby stream promote ops:10 crash")
		})
	}
}

// TestStoreScripts runs random scripts of the store's operations — ops,
// checkpoints, rotations, crashes at writes, clean restarts, disk faults
// healed by probes — at every fsync policy, then the named seeds that
// once failed.
func TestStoreScripts(t *testing.T) {
	seeds, steps := 100, 80
	if testing.Short() || raceEnabled {
		seeds, steps = 1, 25
	}
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(seeds); seed++ {
				randomStoreScript(t, pol, seed, steps)
			}
		})
	}
	// An allocation's record reached the disk and its audit entry, then a
	// record of its own, did not: replay stamped the entry with the
	// recovering clock's time.
	t.Run("interval-seed-37", func(t *testing.T) { randomStoreScript(t, wal.SyncInterval, 37, 80) })
}

// randomStoreScript runs steps random script steps on a rig seeded with
// seed.
func randomStoreScript(t *testing.T, pol wal.SyncPolicy, seed int64, steps int) {
	r := newStoreRig(t, seed, DurableOptions{Fsync: pol, SegmentBytes: 1024, FailOpen: seed%2 == 0, ProbeEvery: time.Hour})
	for i := 0; i < steps; i++ {
		r.run([]string{"ops:3", "ops:1", "ckpt", "rot", "crash", fmt.Sprintf("crashw:%d", 1+r.rng.Intn(20)),
			"close", "eio ops:2 heal probe", "full:10 jrn heal probe", "scrub", "tick"}[r.rng.Intn(11)])
	}
}
