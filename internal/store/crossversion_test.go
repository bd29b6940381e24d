package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wal"
)

// The PR 20 fixture: testdata/pr20-state.snap is the checkpoint, and
// testdata/pr20-suffix.log the WAL segment behind it, that the last build
// with the starts/uint64-seqs run columns and the bucket-per-hash head left
// after running pr20Script on an OS directory (fsync=always, no Close);
// testdata/pr20-probes.txt is what that build answered to pr20ProbeAnswers after
// the whole script.
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

// pr20ProbeAnswers renders what the world answers about the script's
// texts: release verdicts, and for every hash of the hot text its holders
// in first-seen order and its authoritative holder with the exact stamp.
func pr20ProbeAnswers(t testing.TB, w *world) []byte {
	t.Helper()
	var out bytes.Buffer
	texts := append([]string{pr20HotText + " annex number 3", pr20HotText}, opTexts...)
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
	fp, err := w.tracker.Fingerprint(pr20HotText)
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

// TestCrossVersionPR20Fixture: the parent's checkpoint and WAL suffix
// recover here to the state the script builds here, answer the probes as
// the parent did, and re-encode to the parent's bytes.
func TestCrossVersionPR20Fixture(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fixture := read(pr20Checkpoint)
	afterMeta := len(binMagic) + 2 + 5*binSectionEntrySize + 4 + binMetaSize

	// The script run from empty on this build: the image at the
	// checkpoint call, and the complete state.
	fresh := newWorld(t, fixedClock)
	var image []byte
	pr20Script(t, fresh, func() {
		var err error
		if image, err = CaptureBytes(fresh.tracker, fresh.registry, pr20Barrier); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(image[afterMeta:], fixture[afterMeta:]) {
		t.Errorf("this build's image of the scripted state differs from the parent's after the meta section")
	}

	// The checkpoint alone: load, re-encode, same bytes.
	loaded := newWorld(t, fixedClock)
	if _, err := RestoreBytes(pr20Checkpoint, fixture, loaded.tracker, loaded.registry); err != nil {
		t.Fatal(err)
	}
	again, err := CaptureBytes(loaded.tracker, loaded.registry, pr20Barrier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[afterMeta:], fixture[afterMeta:]) {
		t.Errorf("image of the loaded fixture differs from the fixture after the meta section")
	}

	// Checkpoint + WAL suffix through recovery.
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		CheckpointName(pr20Barrier):  fixture,
		wal.SegmentName(pr20Barrier): read(pr20Suffix),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	recovered := newWorld(t, fixedClock)
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
	want := read(pr20Probes)
	if got := pr20ProbeAnswers(t, recovered); !bytes.Equal(got, want) {
		t.Errorf("recovered fixture answers\n%s\nparent answered\n%s", got, want)
	}
	if got := pr20ProbeAnswers(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("script run from empty answers\n%s\nparent answered\n%s", got, want)
	}
}
