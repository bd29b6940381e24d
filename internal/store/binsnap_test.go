package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// TestCaptureRestoreBytes pins the one state-image route: live state →
// binary image → bulk restore.
func TestCaptureRestoreBytes(t *testing.T) {
	tracker, registry := buildState(t)
	blob, err := CaptureBytes(tracker, registry, 9)
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

// TestCrossVersionFixtures loads state files written by the last build
// that still had the struct route (PR 15's Middleware.Save over
// buildState, plaintext and sealed with the passphrase "pr15-fixture"):
// the one route left must read them to the same state, and must write the
// same bytes for that state.
func TestCrossVersionFixtures(t *testing.T) {
	want, wantRegistry := buildState(t)
	plain := filepath.Join("testdata", "pr15-state.snap")
	for _, fx := range []struct {
		path string
		key  []byte
	}{
		{plain, nil},
		{filepath.Join("testdata", "pr15-state.enc.snap"), DeriveKey("pr15-fixture")},
	} {
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
		verifyRestored(t, tracker, registry)
	}

	// Same bytes: everything after the meta section (capture time, WAL
	// epoch) of this build's image of the loaded state is the parent's
	// file, and the index sections of a state this build ingested itself
	// are the parent's sections.
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	tracker, registry := freshState(t)
	if _, err := RestoreBytes(plain, raw, tracker, registry); err != nil {
		t.Fatal(err)
	}
	blob, err := CaptureBytes(tracker, registry, 0)
	if err != nil {
		t.Fatal(err)
	}
	afterMeta := len(binMagic) + 2 + 5*binSectionEntrySize + 4 + binMetaSize
	if !bytes.Equal(blob[afterMeta:], raw[afterMeta:]) {
		t.Errorf("image of the loaded fixture differs from the fixture after the meta section")
	}
	sections, err := parseBinary(plain, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Paragraphs().AppendSnapshot(nil), sections[secParagraphs]) ||
		!bytes.Equal(want.Documents().AppendSnapshot(nil), sections[secDocuments]) {
		t.Errorf("index sections of a freshly built state differ from the fixture's")
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

// TestRecoverRefusesRetiredFormat: an intact checkpoint in a format this
// build no longer reads is refused by name — never skipped as corrupt
// (recovery would fall back past the state it holds) and never
// quarantined as rot — and is not even opened when a newer loadable
// checkpoint covers it.
func TestRecoverRefusesRetiredFormat(t *testing.T) {
	for format, payload := range map[string][]byte{
		"BFLOWSNP framed-JSON": []byte("BFLOWSNP\x01\x00\x00\x00\x00\x00\x00\x00\x02\xb3\x9b\x0d\xd5{}"),
		"bare-JSON":            []byte(`{"version":1,"savedAt":"2024-01-02T03:04:05Z","walSeg":3}`),
	} {
		fs := faultinject.NewMemFS(1)
		dir := "/data"
		if err := fs.MkdirAll(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		old := filepath.Join(dir, CheckpointName(3))
		if err := saveBlobFS(fs, old, payload); err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			var rfe *RetiredFormatError
			if !errors.As(err, &rfe) || rfe.Path != old || rfe.Format != format {
				t.Fatalf("%s: %s: err=%v, want RetiredFormatError{%s, %s}", format, what, err, old, format)
			}
		}

		// Alone in the directory: recovery fails, typed, without counting
		// the file corrupt or touching the state it was handed.
		tracker, registry := buildState(t)
		before, cached := tracker.Digest(), tracker.CacheLen()
		_, name, corrupt, err := RecoverNewestCheckpoint(fs, dir, nil, tracker, registry, t.Logf)
		refused("RecoverNewestCheckpoint", err)
		if name != "" || corrupt != 0 {
			t.Fatalf("%s: recovered (%q, corrupt=%d), want nothing loaded and nothing counted corrupt", format, name, corrupt)
		}
		if tracker.Digest() != before || tracker.CacheLen() != cached || registry.Audit().Len() != 1 {
			t.Fatalf("%s: refused recovery touched the tracker or registry", format)
		}
		tracker2, registry2 := freshState(t)
		_, err = OpenDurable(DurableOptions{Dir: dir, FS: fs}, tracker2, registry2)
		refused("OpenDurable", err)
		_, err = VerifyCheckpointFile(fs, old, nil)
		refused("VerifyCheckpointFile", err)

		// Beside a newer loadable checkpoint: recovery never opens the old
		// file, and the scrubber reports it but leaves it in place.
		blob, err := CaptureBytes(tracker, registry, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := saveBlobFS(fs, filepath.Join(dir, CheckpointName(5)), blob); err != nil {
			t.Fatal(err)
		}
		reads := &readLog{FS: fs}
		d, err := OpenDurable(DurableOptions{Dir: dir, FS: reads, Logf: t.Logf}, tracker2, registry2)
		if err != nil {
			t.Fatalf("%s: OpenDurable beside a newer checkpoint: %v", format, err)
		}
		if rec := d.Stats().Recovery; rec.CheckpointLoaded != CheckpointName(5) || rec.CorruptCheckpoints != 0 {
			t.Errorf("%s: recovery = %+v, want %s and no corrupt checkpoints", format, rec, CheckpointName(5))
		}
		for _, n := range reads.read {
			if n == old {
				t.Errorf("%s: recovery opened the retired file although a newer checkpoint loaded", format)
			}
		}
		verifyRestored(t, tracker2, registry2)
		if found, err := d.ScrubPass(); err != nil || found != 0 {
			t.Errorf("%s: scrub pass = (%d, %v), want nothing found", format, found, err)
		}
		if st := d.Stats().Scrub; st.Quarantines != 0 || st.QuarantinedFiles != 0 {
			t.Errorf("%s: scrubber quarantined the retired file: %+v", format, st)
		}
		if _, err := fs.Size(old); err != nil {
			t.Errorf("%s: retired file no longer in place after a scrub pass: %v", format, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
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
		blob, err := CaptureBytes(tracker, registry, seg)
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
	blob, err := CaptureBytes(tracker, registry, 5)
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
