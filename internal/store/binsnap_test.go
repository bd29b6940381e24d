package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// frameImage assembles a container of the given version around sections,
// checksums valid — the framing CaptureBytes writes, for tests that need an
// image no build writes.
func frameImage(version byte, sections []binSection) []byte {
	headerLen := len(binMagic) + 2 + len(sections)*binSectionEntrySize
	out := append(append([]byte(nil), binMagic...), version, byte(len(sections)))
	off := uint64(headerLen + 4)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.kind)
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, 0)
		off += uint64(len(s.payload))
	}
	out = binary.LittleEndian.AppendUint32(out, 0)
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return refreshCRCs(out)
}

// refreshCRCs returns a copy of data with the section table's checksum and
// that of every section the table places inside the file recomputed, so a
// changed payload reaches its decoder instead of dying at the CRC — what a
// sender who chooses the checksums can do to a bootstrapping standby.
func refreshCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	if !IsBinarySnapshot(out) || len(out) < len(binMagic)+2 {
		return out
	}
	headerLen := len(binMagic) + 2 + int(out[9])*binSectionEntrySize
	if len(out) < headerLen+4 {
		return out
	}
	for row := out[len(binMagic)+2 : headerLen]; len(row) > 0; row = row[binSectionEntrySize:] {
		off, length := binary.LittleEndian.Uint64(row[4:]), binary.LittleEndian.Uint64(row[12:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(row[20:], crc32.Checksum(out[off:off+length], crcTable))
		}
	}
	binary.LittleEndian.PutUint32(out[headerLen:], crc32.Checksum(out[:headerLen], crcTable))
	return out
}

// indexSections returns the paragraph and document sections of an image.
func indexSections(t testing.TB, blob []byte) []byte {
	t.Helper()
	im, err := parseBinary("mem.bf", blob)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := im.require(secParagraphs, secDocuments)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), secs[0].payload...), secs[1].payload...)
}

// TestCaptureRestoreBytes pins the one state-image route: live state →
// binary image → bulk restore.
func TestCaptureRestoreBytes(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 9, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinarySnapshot(blob) {
		t.Fatal("CaptureBytes did not produce a BFLOWSNB image")
	}
	tracker2, registry2 := freshState(t)
	meta, err := RestoreBytes("mem.bf", blob, tracker2, registry2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALSeg != 9 {
		t.Fatalf("WALSeg = %d, want 9", meta.WALSeg)
	}
	if meta.SavedAt.IsZero() {
		t.Fatal("SavedAt not restored")
	}
	verifyRestored(t, tracker2, registry2)
}

// TestSaveWritesBinaryFormat pins that a plaintext save is the BFLOWSNB
// container itself, with no envelope around it.
func TestSaveWritesBinaryFormat(t *testing.T) {
	tracker, registry := buildState(t)
	path := filepath.Join(t.TempDir(), "state.bf")
	if err := saveState(t, path, tracker, registry, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinarySnapshot(raw) {
		t.Fatalf("saved file starts with %q, want BFLOWSNB", raw[:8])
	}
}

// TestCrossVersionFixtures loads state files that Middleware.Save wrote
// over buildState, as the last build to write container version 6
// re-saved them, plaintext and sealed with the passphrase "pr15-fixture":
// the one route must read them to the same state, and must write the same
// version 7 bytes for that state as for the one this build ingests itself.
func TestCrossVersionFixtures(t *testing.T) {
	want, wantRegistry := buildState(t)
	wantBlob, err := CaptureBytes(want, wantRegistry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		path string
		key  []byte
	}{
		{filepath.Join("testdata", "pr15-state.snap"), nil},
		{filepath.Join("testdata", "pr15-state.enc.snap"), DeriveKey("pr15-fixture")},
	} {
		if info, err := VerifyCheckpointFile(wal.OSFS{}, fx.path, fx.key); err != nil || info.Version != binVersionRead {
			t.Fatalf("%s: verify = (%+v, %v), want a clean version %d image", fx.path, info, err, binVersionRead)
		}
		tracker, registry := freshState(t)
		if _, err := RestoreFile(wal.OSFS{}, fx.path, fx.key, tracker, registry); err != nil {
			t.Fatalf("%s: %v", fx.path, err)
		}
		if got, want := tracker.Digest(), want.Digest(); got != want {
			t.Errorf("%s: digest %+v, want %+v", fx.path, got, want)
		}
		got, wantLog := registry.Audit().Entries(), wantRegistry.Audit().Entries()
		for i := range got {
			got[i].Time = time.Time{} // the fixture's entries carry its own wall clock
		}
		for i := range wantLog {
			wantLog[i].Time = time.Time{}
		}
		if !reflect.DeepEqual(got, wantLog) {
			t.Errorf("%s: audit log %+v, want %+v", fx.path, got, wantLog)
		}
		if !reflect.DeepEqual(registry.Export(), wantRegistry.Export()) {
			t.Errorf("%s: registry %+v, want %+v", fx.path, registry.Export(), wantRegistry.Export())
		}
		// Same bytes: this build's image of the loaded fixture carries the
		// index sections of its image of the freshly built state.
		blob, err := CaptureBytes(tracker, registry, 0, testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if blob[8] != binVersion {
			t.Errorf("%s: re-captured as container version %d, want %d", fx.path, blob[8], binVersion)
		}
		if !bytes.Equal(indexSections(t, blob), indexSections(t, wantBlob)) {
			t.Errorf("%s: index sections of the loaded fixture's image differ from a freshly built state's", fx.path)
		}
		verifyRestored(t, tracker, registry)
	}
}

// readLog records which files a recovery opened.
type readLog struct {
	wal.FS
	read []string
}

func (r *readLog) ReadFile(name string) ([]byte, error) {
	r.read = append(r.read, name)
	return r.FS.ReadFile(name)
}

// listedState is buildState with labelled segments the paragraph
// section's table does not name: an explicit tag on a segment never
// observed, a document's label, and a label kept after its paragraph left
// the index.
func listedState(t testing.TB) (*disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, registry := buildState(t)
	registry.UpsertExplicit("docs/unseen#p0", []tdm.Tag{"tw"})
	if err := registry.ObserveSegment("wiki/plan", "wiki"); err != nil {
		t.Fatal(err)
	}
	if err := registry.ObserveSegment("wiki/old#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveParagraph("wiki/old#p0", "an old paragraph that the wiki has since deleted from the page"); err != nil {
		t.Fatal(err)
	}
	tracker.Paragraphs().RemoveSegment("wiki/old#p0")
	return tracker, registry
}

// TestRestoreListsSegmentsOutsideTheTable: the registry section codes the
// segments of the paragraph section's table and lists the labelled
// segments it does not name; the image restores to the registry it was
// captured from and re-encodes to its own bytes.
func TestRestoreListsSegmentsOutsideTheTable(t *testing.T) {
	tracker, registry := listedState(t)
	blob, err := CaptureBytes(tracker, registry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	im, err := parseBinary("mem.bf", blob)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := im.require(secParagraphs, secRegistry)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := freshState(t)
	prep, err := fresh.Paragraphs().PrepareSnapshot(secs[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tdm.DecodeExportData(secs[1].payload, prep.Table())
	if err != nil {
		t.Fatal(err)
	}
	var listed []segment.ID
	for _, s := range data.Segments {
		if _, named := slices.BinarySearch(prep.Table(), s.Seg); !named {
			listed = append(listed, s.Seg)
		}
	}
	if want := []segment.ID{"docs/unseen#p0", "wiki/old#p0", "wiki/plan"}; !slices.Equal(listed, want) || len(data.Segments) != len(want)+1 {
		t.Errorf("the registry section lists %v of %d labelled segments, want %v of %d", listed, len(data.Segments), want, len(want)+1)
	}

	restoredTracker, restoredRegistry := freshState(t)
	if _, err := RestoreBytes("mem.bf", blob, restoredTracker, restoredRegistry); err != nil {
		t.Fatal(err)
	}
	if got, want := restoredRegistry.Export(), registry.Export(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored registry exports\n%+v\nwant\n%+v", got, want)
	}
	again, err := CaptureBytes(restoredTracker, restoredRegistry, 0, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Errorf("the restored state captures to %d bytes, not the %d it was restored from", len(again), len(blob))
	}
}

// TestRecoverRefusesRetiredFormat: an intact checkpoint in a format this
// build no longer reads is refused by name — never skipped as corrupt
// (recovery would fall back past the state it holds) and never
// quarantined as rot — and is not even opened when a newer loadable
// checkpoint covers it. That includes the first sectioned container,
// version 2 (index codec 1, JSON registry), version 3 (index codec 2),
// version 4 (registry codec 1) and version 5 (registry codec 2).
func TestRecoverRefusesRetiredFormat(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 3, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	im, err := parseBinary("mem.bf", blob)
	if err != nil {
		t.Fatal(err)
	}
	for format, payload := range map[string][]byte{
		"BFLOWSNP framed-JSON": []byte("BFLOWSNP\x01\x00\x00\x00\x00\x00\x00\x00\x02\xb3\x9b\x0d\xd5{}"),
		"bare-JSON":            []byte(`{"version":1,"savedAt":"2024-01-02T03:04:05Z","walSeg":3}`),
		"BFLOWSNB version 2":   frameImage(2, im.sections),
		"BFLOWSNB version 3":   frameImage(3, im.sections),
		"BFLOWSNB version 4":   frameImage(4, im.sections),
		"BFLOWSNB version 5":   frameImage(binVersionRetired, im.sections),
	} {
		testRefusedCheckpoint(t, format, payload, func(path string, err error) bool {
			var rfe *RetiredFormatError
			return errors.As(err, &rfe) && rfe.Path == path && rfe.Format == format
		})
	}
}

// TestRecoverRefusesNewerVersion: an image whose container version is above
// the one this build writes, header otherwise intact, was written by a
// newer build and gets the same treatment — with an older valid spare
// beside it, recovery errors instead of loading the spare. The same bytes
// with a damaged header are plain corruption.
func TestRecoverRefusesNewerVersion(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 3, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	im, err := parseBinary("mem.bf", blob)
	if err != nil {
		t.Fatal(err)
	}
	newer := frameImage(binVersion+1, im.sections)
	testRefusedCheckpoint(t, "version 8", newer, func(path string, err error) bool {
		var nfe *NewerFormatError
		return errors.As(err, &nfe) && nfe.Path == path && nfe.Version == binVersion+1
	})

	newer[len(binMagic)+3] ^= 0x01 // a section-table byte: the header CRC no longer holds
	var ce *CorruptSnapshotError
	if _, err := RestoreBytes("mem.bf", newer, tracker, registry); !errors.As(err, &ce) {
		t.Errorf("version 8 under a damaged header: err=%v, want CorruptSnapshotError", err)
	}
}

// testRefusedCheckpoint saves payload as checkpoint 3 and requires every
// consumer to surface it with an error refused accepts: recovery (alone in
// the directory and with an older valid spare beside it), OpenDurable and
// VerifyCheckpointFile fail; behind a newer loadable checkpoint it is never
// opened, and the scrubber reports it but leaves it in place.
func testRefusedCheckpoint(t *testing.T, what string, payload []byte, refused func(path string, err error) bool) {
	t.Helper()
	fs := faultinject.NewMemFS(1)
	dir := "/data"
	if err := fs.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, CheckpointName(3))
	if err := saveBlobFS(fs, old, payload); err != nil {
		t.Fatal(err)
	}
	check := func(where string, err error) {
		t.Helper()
		if !refused(old, err) {
			t.Fatalf("%s: %s: err=%v, want the file refused by name", what, where, err)
		}
	}

	// Recovery fails, typed, without counting the file corrupt or touching
	// the state it was handed — alone in the directory, and with an older
	// loadable spare to fall back to.
	tracker, registry := buildState(t)
	spare, err := CaptureBytes(tracker, registry, 1, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, withSpare := range []bool{false, true} {
		if withSpare {
			if err := saveBlobFS(fs, filepath.Join(dir, CheckpointName(1)), spare); err != nil {
				t.Fatal(err)
			}
		}
		before, cached := tracker.Digest(), memoLen(tracker)
		_, name, corrupt, err := RecoverNewestCheckpoint(fs, dir, nil, tracker, registry, t.Logf)
		check("RecoverNewestCheckpoint", err)
		if name != "" || corrupt != 0 {
			t.Fatalf("%s: recovered (%q, corrupt=%d), want nothing loaded and nothing counted corrupt", what, name, corrupt)
		}
		if tracker.Digest() != before || memoLen(tracker) != cached || registry.Audit().Len() != 1 {
			t.Fatalf("%s: refused recovery touched the tracker or registry", what)
		}
		tracker2, registry2 := freshState(t)
		_, err = OpenDurable(DurableOptions{Dir: dir, FS: fs}, tracker2, registry2)
		check("OpenDurable", err)
		if s := tracker2.Paragraphs().Stats(); s.Segments != 0 {
			t.Fatalf("%s: refused OpenDurable loaded the spare: %+v", what, s)
		}
	}
	_, err = VerifyCheckpointFile(fs, old, nil)
	check("VerifyCheckpointFile", err)

	// Beside a newer loadable checkpoint: recovery never opens the old
	// file, and the scrubber reports it but leaves it in place.
	blob, err := CaptureBytes(tracker, registry, 5, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveBlobFS(fs, filepath.Join(dir, CheckpointName(5)), blob); err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	reads := &readLog{FS: fs}
	d, err := OpenDurable(DurableOptions{Dir: dir, FS: reads, Logf: t.Logf}, tracker2, registry2)
	if err != nil {
		t.Fatalf("%s: OpenDurable beside a newer checkpoint: %v", what, err)
	}
	if rec := d.Stats().Recovery; rec.CheckpointLoaded != CheckpointName(5) || rec.CorruptCheckpoints != 0 {
		t.Errorf("%s: recovery = %+v, want %s and no corrupt checkpoints", what, rec, CheckpointName(5))
	}
	for _, n := range reads.read {
		if n == old {
			t.Errorf("%s: recovery opened the refused file although a newer checkpoint loaded", what)
		}
	}
	verifyRestored(t, tracker2, registry2)
	if found, err := d.ScrubPass(); err != nil || found != 0 {
		t.Errorf("%s: scrub pass = (%d, %v), want nothing found", what, found, err)
	}
	if st := d.Stats().Scrub; st.Quarantines != 0 || st.QuarantinedFiles != 0 {
		t.Errorf("%s: scrubber quarantined the refused file: %+v", what, st)
	}
	if _, err := fs.Size(old); err != nil {
		t.Errorf("%s: refused file no longer in place after a scrub pass: %v", what, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsCorruptBinaryCheckpoint: the newest checkpoint is
// damaged, so recovery must fall back to the older spare and count the
// corruption.
func TestRecoverSkipsCorruptBinaryCheckpoint(t *testing.T) {
	tracker, registry := buildState(t)
	fs := faultinject.NewMemFS(2)
	dir := "durable"
	if err := fs.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []uint64{1, 2} {
		blob, err := CaptureBytes(tracker, registry, seg, testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if err := saveBlobFS(fs, filepath.Join(dir, CheckpointName(seg)), blob); err != nil {
			t.Fatal(err)
		}
	}
	newest := filepath.Join(dir, CheckpointName(2))
	size, err := fs.Size(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.FlipByte(newest, size/2, 0x40); err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	barrier, name, corrupt, err := RecoverNewestCheckpoint(fs, dir, nil, tracker2, registry2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != 1 || name != CheckpointName(1) || corrupt != 1 {
		t.Fatalf("recovered (%d, %s, %d), want (1, %s, 1)", barrier, name, corrupt, CheckpointName(1))
	}
	verifyRestored(t, tracker2, registry2)
}

// TestBinarySnapshotCorruptionSweep damages a valid image at every layer
// — truncations across the whole length, bit flips in header, table and
// payloads, garbage tails — and requires a typed *CorruptSnapshotError
// with a sane offset, no panic, and an untouched tracker.
func TestBinarySnapshotCorruptionSweep(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 5, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	check := func(mut []byte, what string) {
		t.Helper()
		tracker2, registry2 := freshState(t)
		before := tracker2.Paragraphs().Stats()
		_, err := RestoreBytes("mut.bf", mut, tracker2, registry2)
		if err == nil {
			t.Fatalf("%s: corrupted image accepted", what)
		}
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error is not a CorruptSnapshotError: %v", what, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(len(mut))+1 {
			t.Fatalf("%s: implausible offset %d (len %d)", what, ce.Offset, len(mut))
		}
		if after := tracker2.Paragraphs().Stats(); after != before {
			t.Fatalf("%s: rejected restore mutated index: %+v -> %+v", what, before, after)
		}
	}
	// Truncate at every length below the full image.
	for cut := 0; cut < len(blob); cut += 7 {
		check(blob[:cut], "truncate")
	}
	// Flip one bit at every offset.
	for off := 0; off < len(blob); off += 3 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x10
		check(mut, "bitflip")
	}
	// Garbage tail.
	check(append(append([]byte(nil), blob...), 0x00), "tail")
}

// TestRestoreBelowTheCRC flips a bit in every twelfth payload byte or so of
// an image of the PR 22 script's state — every case the codecs encode
// indirectly — and makes the checksums valid again, so each mutation
// reaches the payload decoders, as it would from a sender who chooses the
// CRCs. Each must load cleanly into a state that captures again, or be
// rejected — corruption with an offset inside the file — leaving the state
// as it was.
func TestRestoreBelowTheCRC(t *testing.T) {
	src := newWorld(t)
	pr22Script(t, src)
	blob, err := CaptureBytes(src.tracker, src.registry, 5, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t)
	rng := rand.New(rand.NewSource(23))
	loaded, rejected := 0, 0
	for off := afterMeta - binMetaSize; off < len(blob); off += 1 + rng.Intn(23) {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 1 << uint(rng.Intn(8))
		mut = refreshCRCs(mut)
		before := w.tracker.Digest()
		_, err := RestoreBytes("mut.bf", mut, w.tracker, w.registry)
		if err == nil {
			loaded++
			if _, err := CaptureBytes(w.tracker, w.registry, 5, testEpoch); err != nil {
				t.Fatalf("offset %d: accepted image does not capture again: %v", off, err)
			}
			continue
		}
		rejected++
		var ce *CorruptSnapshotError
		if errors.As(err, &ce) && (ce.Offset < 0 || ce.Offset > int64(len(mut))) {
			t.Fatalf("offset %d: corruption reported outside the file: %v", off, err)
		}
		if w.tracker.Digest() != before {
			t.Fatalf("offset %d: rejected restore touched the index: %v", off, err)
		}
	}
	if loaded == 0 || rejected < len(blob)/48 {
		t.Fatalf("%d mutations loaded, %d were rejected: the sweep is not reaching the decoders", loaded, rejected)
	}
	t.Logf("%d bytes: %d mutations loaded, %d rejected", len(blob), loaded, rejected)
}

// TestMapFileFallbacks pins the FS capability check: MemFS has no mmap,
// so MapFile must silently fall back to ReadFile; OSFS maps on unix.
func TestMapFileFallbacks(t *testing.T) {
	fs := faultinject.NewMemFS(3)
	if err := fs.MkdirAll("d", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := saveBlobFS(fs, "d/x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, release, mapped, err := wal.MapFile(fs, "d/x")
	if err != nil || mapped || string(data) != "hello" {
		t.Fatalf("MemFS MapFile = (%q, mapped=%v, %v), want heap fallback", data, mapped, err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "y")
	if err := os.WriteFile(path, []byte("world"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, release, mapped, err = wal.MapFile(wal.OSFS{}, path)
	if err != nil || string(data) != "world" {
		t.Fatalf("OSFS MapFile = (%q, %v)", data, err)
	}
	t.Logf("OSFS MapFile mapped=%v", mapped)
	if err := release(); err != nil {
		t.Fatal(err)
	}
}
