package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wal"
)

// The PR 20 fixture: testdata/pr20-state.snap is the checkpoint, and
// testdata/pr20-suffix.log the WAL segment behind it, that pr20Script left
// on an OS directory (fsync=always, no Close), the checkpoint as the last
// build to write container version 6 re-saved it; testdata/pr20-probes.txt
// is what the last build with the starts/uint64-seqs run columns and the
// bucket-per-hash head answered to pr20ProbeAnswers after the whole
// script, and what every build since has answered.
const (
	pr20Checkpoint = "pr20-state.snap"
	pr20Suffix     = "pr20-suffix.log"
	pr20Probes     = "pr20-probes.txt"
	pr20Barrier    = 2 // the fixture checkpoint's WAL epoch barrier
)

// pr20HotText is held by the script's bravo/copyN#p0 paragraphs and by
// nothing else, so removing the oldest copy promotes the next.
const pr20HotText = "shared appendix on incident response and the escalation contacts"

// pr20Script is the fixed op sequence behind the fixture: the journalled
// op mix of genOps; a hot text held by enough paragraphs to cross the head
// bucket's member-map threshold; removals of the oldest holder of that
// text on either side of the checkpoint, so a younger holder is promoted;
// and a logical-clock jump past 2^32 between holders of the same hashes,
// so first-seen stamps on both sides of the jump share posting groups.
// checkpoint is called once, between the state the image holds and the ops
// the WAL suffix carries.
func pr20Script(t testing.TB, w *world, checkpoint func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	run := func(n int) {
		for _, op := range genOps(rng, n) {
			_ = op.run(w.engine) // validation errors are part of the stream
		}
	}
	copySeg := func(i int) segment.ID { return segment.ID(fmt.Sprintf("bravo/copy%d#p0", i)) }
	observeCopies := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := w.engine.ObserveEdit(copySeg(i), "bravo", fmt.Sprintf("%s annex number %d", pr20HotText, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	prune := func(seg segment.ID) {
		k := segment.Key(seg)
		if _, err := w.engine.PruneRange(context.Background(), k, k); err != nil {
			t.Fatal(err)
		}
	}

	run(40)
	observeCopies(0, 12)
	prune(copySeg(0))
	w.tracker.SetClockFloor(segment.GranularityParagraph, 1<<40)
	run(20)
	observeCopies(12, 16)
	checkpoint()
	run(15)
	observeCopies(16, 18)
	prune(copySeg(1))
}

// probeAnswers renders what the world answers about a script's texts:
// release verdicts for extra, hot and the genOps texts, and for every hash
// of the hot text its holders in first-seen order and its authoritative
// holder with the exact stamp.
func probeAnswers(t testing.TB, w *world, hot string, extra ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	texts := append(append(extra, hot), opTexts...)
	for i, text := range texts {
		v, err := w.engine.CheckText(text, "bravo")
		if err != nil {
			t.Fatal(err)
		}
		srcs, err := w.tracker.QueryParagraph(text, "")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "check %d: %s %v %v\n", i, v.Decision, v.Violating, srcs)
	}
	fp, err := w.tracker.Fingerprint(hot)
	if err != nil {
		t.Fatal(err)
	}
	pars := w.tracker.Paragraphs()
	for _, h := range fp.Hashes() {
		fmt.Fprintf(&out, "holders %#x: %v\n", h, pars.Holders(h))
	}
	for _, ref := range pars.AppendOldestRefs(fp.Hashes(), nil) {
		fmt.Fprintf(&out, "oldest %d: %s @%d\n", ref.Idx, ref.Seg, ref.Seq)
	}
	fmt.Fprintf(&out, "clock %d %d\n", pars.Now(), w.tracker.Documents().Now())
	return out.Bytes()
}

func pr20ProbeAnswers(t testing.TB, w *world) []byte {
	return probeAnswers(t, w, pr20HotText, pr20HotText+" annex number 3")
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// afterMeta is where an image's sections past meta (capture time, WAL
// epoch) start.
const afterMeta = len("BFLOWSNB") + 2 + 5*binSectionEntrySize + 4 + binMetaSize

// TestCrossVersionPR20Fixture: the version 6 checkpoint and its WAL suffix
// recover here to the state the script builds here and answer the
// recorded probes; the version 7 image of the loaded checkpoint is the
// version 7 image of the script run from empty.
func TestCrossVersionPR20Fixture(t *testing.T) {
	fixture := readFixture(t, pr20Checkpoint)
	if fixture[8] != binVersionRead {
		t.Fatalf("fixture is container version %d, want %d", fixture[8], binVersionRead)
	}

	// The script run from empty on this build: the image at the
	// checkpoint call, and the complete state.
	fresh := newWorld(t)
	var image []byte
	pr20Script(t, fresh, func() {
		var err error
		if image, err = CaptureBytes(fresh.tracker, fresh.registry, pr20Barrier, testEpoch); err != nil {
			t.Fatal(err)
		}
	})

	// The checkpoint alone: load, re-encode, same bytes.
	loaded := newWorld(t)
	if _, err := RestoreBytes(pr20Checkpoint, fixture, loaded.tracker, loaded.registry); err != nil {
		t.Fatal(err)
	}
	again, err := CaptureBytes(loaded.tracker, loaded.registry, pr20Barrier, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[afterMeta:], image[afterMeta:]) {
		t.Errorf("image of the loaded fixture differs from the image of the script run from empty after the meta section")
	}

	// Checkpoint + WAL suffix through recovery.
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		CheckpointName(pr20Barrier):  fixture,
		wal.SegmentName(pr20Barrier): readFixture(t, pr20Suffix),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	recovered := newWorld(t)
	d, err := OpenDurable(DurableOptions{Dir: dir, Fsync: wal.SyncNone}, recovered.tracker, recovered.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rec := d.Stats().Recovery; rec.CheckpointLoaded != CheckpointName(pr20Barrier) || rec.RecordsReplayed == 0 {
		t.Fatalf("recovery = %+v, want the fixture checkpoint plus replayed records", rec)
	}
	if !bytes.Equal(export(t, recovered), export(t, fresh)) {
		t.Errorf("recovered fixture state differs from the script run from empty")
	}
	want := readFixture(t, pr20Probes)
	if got := pr20ProbeAnswers(t, recovered); !bytes.Equal(got, want) {
		t.Errorf("recovered fixture answers\n%s\nparent answered\n%s", got, want)
	}
	if got := pr20ProbeAnswers(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("script run from empty answers\n%s\nparent answered\n%s", got, want)
	}
}

// The PR 22 fixture: testdata/pr22-state.snap is the image of pr22Script
// as the last build that wrote container version 6 (index codec 3)
// re-saved it, and testdata/pr22-probes.txt what the last build to write
// version 2 answered to pr22ProbeAnswers, as every build since has.
const (
	pr22Image  = "pr22-state.snap"
	pr22Probes = "pr22-probes.txt"
)

// pr22MemoText is first held by alpha/memo#p0; the script extends it,
// pastes it and expires its first postings.
const pr22MemoText = "terms of the partner agreement and the staged payment schedule"

// pr22Script builds the state behind the fixture: the op mix of genOps,
// then every case where container version 3 stored a fact differently from
// version 2. In the index: fingerprint hashes whose postings expired, a
// posted union larger than the fingerprint, a segment edited and then
// pruned (its writer left the first version's postings behind without a
// DBpar entry; see pr22Resettle), a threshold-only entry, a non-default
// threshold, and holders of the same hashes on both sides of a clock-floor
// jump. In the registry: explicit custom tags with their owner, implicit
// tags and a suppression, on top of labels of segments the index has
// dropped.
func pr22Script(t testing.TB, w *world) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	run := func(n int) {
		for _, op := range genOps(rng, n) {
			_ = op.run(w.engine) // validation errors are part of the stream
		}
	}
	observe := func(seg segment.ID, service, text string) {
		t.Helper()
		if _, err := w.engine.ObserveEdit(seg, service, text); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pars := w.tracker.Paragraphs()

	run(30)
	observe("alpha/memo#p0", "alpha", pr22MemoText)
	cut := pars.Now() + 1
	// Re-observed past the cut, the memo survives the expiry below while
	// the postings of its first version do not.
	observe("alpha/memo#p0", "alpha", pr22MemoText+" as amended in the second round of talks")
	run(30)
	pars.ExpireBefore(cut)

	must(w.engine.AllocateTag("carol", "carol:deal"))
	must(w.engine.AddTagToSegment("carol", "alpha/memo#p0", "carol:deal"))
	must(w.engine.Suppress("auditor", "alpha/memo#p0", "ta", "cleared for the partner briefing"))
	observe("bravo/paste#p0", "bravo", pr22MemoText+" as amended in the second round of talks")
	observe("bravo/paste#p0", "bravo", opTexts[3]+" rewritten without the pasted terms")

	pars.SetThreshold("alpha/memo#p0", 0.8)
	pars.SetThreshold("alpha/unobserved#p0", 0.6)

	// Two versions, then pruned: the postings of both go.
	observe("bravo/moved#p0", "bravo", pr22MovedText)
	observe("bravo/moved#p0", "bravo", opTexts[5]+" in its second wording")
	k := segment.Key("bravo/moved#p0")
	_, err := w.engine.PruneRange(context.Background(), k, k)
	must(err)

	for i := 0; i < 3; i++ {
		observe(segment.ID(fmt.Sprintf("bravo/copy%d#p0", i)), "bravo", fmt.Sprintf("%s copy number %d", pr22MemoText, i))
	}
	w.tracker.SetClockFloor(segment.GranularityParagraph, 1<<40)
	for i := 3; i < 5; i++ {
		observe(segment.ID(fmt.Sprintf("bravo/copy%d#p0", i)), "bravo", fmt.Sprintf("%s copy number %d", pr22MemoText, i))
	}
	run(10)
}

// pr22MovedText is bravo/moved#p0's first version in pr22Script.
var pr22MovedText = opTexts[4] + " in its first wording"

// movedHeld reports whether bravo/moved#p0 holds a posting of any hash of
// its first version.
func movedHeld(t testing.TB, w *world) bool {
	t.Helper()
	fp, err := w.tracker.Fingerprint(pr22MovedText)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range fp.Hashes() {
		if slices.Contains(w.tracker.Paragraphs().Holders(h), "bravo/moved#p0") {
			return true
		}
	}
	return false
}

// pr22ProbeAnswers renders what the world answers about the script's
// state: the index probes of probeAnswers around the memo text, every
// paragraph threshold that was set, and the labels, stored-by lists and
// tag owners the registry section carries.
func pr22ProbeAnswers(t testing.TB, w *world) []byte {
	t.Helper()
	var out bytes.Buffer
	out.Write(probeAnswers(t, w, pr22MemoText, pr22MemoText+" copy number 4"))
	pars := w.tracker.Paragraphs()
	for _, seg := range pars.Segments() {
		fp, _ := pars.Fingerprint(seg)
		fmt.Fprintf(&out, "segment %s: threshold %v, %d hashes\n", seg, pars.Threshold(seg), fp.Len())
	}
	data := w.registry.Export()
	for _, s := range data.Segments {
		l := data.Labels[s.Label]
		fmt.Fprintf(&out, "label %s: %v %v %v %v\n", s.Seg, l.Explicit, l.Implicit, l.Suppressed, l.StoredBy)
	}
	for _, s := range data.Services {
		fmt.Fprintf(&out, "service %s: %v %v\n", s.Name, s.Privilege, s.Confidentiality)
	}
	for _, tr := range data.Tags {
		fmt.Fprintf(&out, "tag %s: %s\n", tr.Tag, tr.Owner)
	}
	return out.Bytes()
}

// TestCrossVersionPR22Fixture: the last version 6 image — stamp distances
// in γ and every DBpar updated absolute, with explicit, implicit,
// suppressed and custom-owner tags, over the index cases container version
// 3 stored differently from version 2 — loads and answers the probes as
// its writer did, and so does the version 7 image of the script run from
// empty; each loads to that run's state and re-encodes to its bytes.
func TestCrossVersionPR22Fixture(t *testing.T) {
	fixture := readFixture(t, pr22Image)
	if fixture[8] != binVersionRead {
		t.Fatalf("fixture is container version %d, want %d", fixture[8], binVersionRead)
	}
	fresh := newWorld(t)
	pr22Script(t, fresh)
	image, err := CaptureBytes(fresh.tracker, fresh.registry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	want := readFixture(t, pr22Probes)
	if got := pr22ProbeAnswers(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("script run from empty answers\n%s\nparent answered\n%s", got, want)
	}
	if movedHeld(t, fresh) {
		t.Error("the script run from empty left postings of the pruned segment")
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"version 6 fixture", fixture},
		{"version 7 image", image},
	} {
		loaded := newWorld(t)
		if _, err := RestoreBytes(tc.name, tc.blob, loaded.tracker, loaded.registry); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pr22ProbeAnswers(t, loaded); !bytes.Equal(got, want) {
			t.Errorf("%s: loaded state answers\n%s\nparent answered\n%s", tc.name, got, want)
		}
		if movedHeld(t, loaded) {
			t.Errorf("%s: the pruned segment's postings are present", tc.name)
		}
		if !bytes.Equal(export(t, loaded), export(t, fresh)) {
			t.Errorf("%s: loaded state differs from the script run from empty", tc.name)
		}
		again, err := CaptureBytes(loaded.tracker, loaded.registry, 0, testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again[afterMeta:], image[afterMeta:]) {
			t.Errorf("%s: image of the loaded state differs from the image of the script run from empty after the meta section", tc.name)
		}
	}
}

// What the parent build of the shared segment table reported for
// pr22Script run from empty: the tracker digest, a SHA-256 over the
// per-stripe ShardDigests of both databases (paragraphs' postings then
// pars, then documents', each stripe a little-endian uint64) and a SHA-256
// of the state image after its meta section. Standbys upgrade before
// primaries and compare /v1/repl/digest across builds, and a checkpoint
// written by one build is read by the next, so none of them may move with
// an in-memory layout; they move with the state the script builds, as
// when pruning its edited segment came to take both versions' postings.
const (
	pr22Digest      uint64 = 0xa6a68643fe1c17f7
	pr22ParsDigest  uint64 = 0x1811e97322d3e062
	pr22DocsDigest  uint64 = 0x662d5566b2318fbb
	pr22StripesSHA         = "570eb0e6a6987f257a93c6edf8086dddbf998b1d84680af5b5e2ee1f192264da"
	pr22ImageSHA           = "9e60043205780ba7bbfd39f457d75aa1c797a1a55038395db43dd0428512404e"
	pr22ImageLength        = 6061
)

// TestPR22ScriptPins holds this build's digests and image of pr22Script to
// the values recorded above.
func TestPR22ScriptPins(t *testing.T) {
	w := newWorld(t)
	pr22Script(t, w)
	if d := w.tracker.Digest(); d.Combined != pr22Digest || d.Paragraphs.Combined != pr22ParsDigest || d.Documents.Combined != pr22DocsDigest {
		t.Errorf("tracker digest %#x (paragraphs %#x, documents %#x), want %#x (%#x, %#x)",
			d.Combined, d.Paragraphs.Combined, d.Documents.Combined, pr22Digest, pr22ParsDigest, pr22DocsDigest)
	}
	stripes := sha256.New()
	for _, db := range []*index.DB{w.tracker.Paragraphs(), w.tracker.Documents()} {
		postings, pars := db.ShardDigests()
		for _, v := range append(postings, pars...) {
			stripes.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	if got := hex.EncodeToString(stripes.Sum(nil)); got != pr22StripesSHA {
		t.Errorf("per-stripe digests hash to %s, want %s", got, pr22StripesSHA)
	}
	image, err := CaptureBytes(w.tracker, w.registry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(image[afterMeta:]); hex.EncodeToString(got[:]) != pr22ImageSHA || len(image) != pr22ImageLength {
		t.Errorf("image: %d bytes, SHA-256 after meta %x; want %d bytes, %s", len(image), got, pr22ImageLength, pr22ImageSHA)
	}
}

// What this build journals for pr22Script on an empty directory: the
// SHA-256 and length of its one WAL segment, and the SHA-256 of the export
// of the state that segment replays to (the script's expiry and thresholds
// are not journalled, so not the script's own state). testdata/pr22-script.log
// is the segment the last build to journal an op's audit entries in a
// record of their own wrote for the script; it replays to the same state.
// Frames ship to standbys verbatim and a newer build replays an older
// build's log, so no decoder may move, nor an encoder but on purpose, with
// the fixture of the layout before; the replayed state moves with the
// state the script builds, as the pins above do, and its SHA-256 with the
// index codec, the registry export's shape and the digests' rendering
// too, since export holds the index image, each DB's Digest printed with
// %+v and the export's JSON.
const (
	walPinSHA       = "5bcf57bd5fa4100ec02b5768516ec6e588d76decfb9bb5c7c0a8a2e314135604"
	walPinLength    = 14509
	walPinReplaySHA = "a8b2b13add950f8013ae94c6f765a96664effe60e08bc5a922cca33a17a37d64"
	pr22WAL         = "pr22-script.log"
)

// TestScriptWALPin holds the WAL segment pr22Script writes, and the state
// it and the fixture of the layout before replay to, to the values
// recorded above.
func TestScriptWALPin(t *testing.T) {
	fs := faultinject.NewMemFS(22)
	w := newWorld(t)
	d := openDurableForTest(t, fs, wal.SyncAlways, w)
	defer d.Close()
	w.engine.SetJournal(d)
	pr22Script(t, w)
	segs, err := wal.ListSegments(fs, "/data")
	if err != nil || len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments %v, %v; want segment 1 alone", segs, err)
	}
	data, err := fs.ReadFile(filepath.Join("/data", wal.SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != walPinSHA || len(data) != walPinLength {
		t.Errorf("WAL segment: %d bytes, SHA-256 %x; want %d bytes, %s", len(data), got, walPinLength, walPinSHA)
	}

	for name, segment := range map[string][]byte{"this build's segment": data, pr22WAL: readFixture(t, pr22WAL)} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), segment, 0o600); err != nil {
			t.Fatal(err)
		}
		replayed := newWorld(t)
		rd, err := OpenDurable(DurableOptions{Dir: dir, Fsync: wal.SyncNone}, replayed.tracker, replayed.registry)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sha256.Sum256(export(t, replayed)); hex.EncodeToString(got[:]) != walPinReplaySHA {
			t.Errorf("%s: replayed state exports to SHA-256 %x, want %s", name, got, walPinReplaySHA)
		}
		rd.Close()
	}
}
