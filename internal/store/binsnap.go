// binsnap.go implements the BFLOWSNB binary state image — the one format
// every save writes (checkpoints, Middleware.Save, replica bootstrap,
// split filter) and every load reads. The image is a versioned, immutable,
// sectioned container:
//
//	BFLOWSNB(8) | version(1) | sectionCount(1)
//	sectionCount × { kind u32 | off u64 | len u64 | crc32c u32 }  (LE)
//	headerCRC32C(4)
//	section payloads, contiguous, in table order
//
// Every section carries its own CRC32C (Castagnoli, shared with the WAL
// framing) and the section table itself is CRC-framed, so truncation, bit
// flips and garbage tails are all detected before any payload is parsed.
// The two fingerprint databases are stored in the index package's binary
// posting codec (delta-encoded, deterministic); the registry and audit
// sections stay JSON — they are small and schema-flexible.
//
// There is one way in and one way out. CaptureBytes encodes straight from
// the live DBs (index.AppendSnapshot, which takes its own consistent cut);
// RestoreBytes validates the whole image, then bulk-loads it with
// index.PrepareSnapshot/CommitSnapshot, which build the compacted runs
// directly. RestoreFile is RestoreBytes for a file: mapped when the
// filesystem supports it (wal.MapFS), unsealed when keyed.
//
// The formats that preceded BFLOWSNB are recognised (retiredFormat) only
// to be refused with a RetiredFormatError.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// binMagic prefixes sectioned binary snapshots.
var binMagic = []byte("BFLOWSNB")

// binVersion is the container format version. Version 1 was the retired
// framed-JSON payload; the sectioned binary container is version 2.
const binVersion = 2

// Section kinds. Unknown kinds are rejected: the format is immutable per
// version, not extensible in place.
const (
	secMeta       = 1 // fixed 24 bytes: schema version, savedAt, walSeg
	secParagraphs = 2 // index binary snapshot of the paragraph DB
	secDocuments  = 3 // index binary snapshot of the document DB
	secRegistry   = 4 // tdm.ExportData, JSON
	secAudit      = 5 // []audit.Entry, JSON
)

// binSectionEntry is one row of the section table.
const binSectionEntrySize = 4 + 8 + 8 + 4

// binMetaSize is the fixed size of the meta section payload.
const binMetaSize = 8 + 8 + 8

// IsBinarySnapshot reports whether data begins with the BFLOWSNB magic.
func IsBinarySnapshot(data []byte) bool {
	return len(data) >= len(binMagic) && string(data[:len(binMagic)]) == string(binMagic)
}

// retiredFormat names the pre-BFLOWSNB format data is in, or "" when it is
// in neither: the BFLOWSNP magic, or JSON's opening brace.
func retiredFormat(data []byte) string {
	if bytes.HasPrefix(data, []byte("BFLOWSNP")) {
		return "BFLOWSNP framed-JSON"
	}
	if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		return "bare-JSON"
	}
	return ""
}

// binSection is one section to be framed.
type binSection struct {
	kind    uint32
	payload []byte
}

// frameBinary assembles the sectioned container around payloads.
func frameBinary(sections []binSection) []byte {
	headerLen := len(binMagic) + 2 + len(sections)*binSectionEntrySize
	total := headerLen + 4
	for _, s := range sections {
		total += len(s.payload)
	}
	out := make([]byte, 0, total)
	out = append(out, binMagic...)
	out = append(out, binVersion, byte(len(sections)))
	off := uint64(headerLen + 4)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.kind)
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, crcTable))
		off += uint64(len(s.payload))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out
}

// parseBinary validates the container framing and returns the payload of
// each section, keyed by kind. Errors are *CorruptSnapshotError with the
// offset of the first offending byte, or *RetiredFormatError for an image
// in a format that is refused rather than damaged.
func parseBinary(path string, data []byte) (map[uint32][]byte, error) {
	fail := func(off int64, reason string) (map[uint32][]byte, error) {
		return nil, &CorruptSnapshotError{Path: path, Offset: off, Reason: reason}
	}
	if format := retiredFormat(data); format != "" {
		return nil, &RetiredFormatError{Path: path, Format: format}
	}
	if len(data) < len(binMagic)+2 {
		return fail(int64(len(data)), "truncated binary snapshot header")
	}
	if !IsBinarySnapshot(data) {
		return fail(0, "not a BFLOWSNB image")
	}
	if v := data[8]; v != binVersion {
		return fail(8, fmt.Sprintf("unsupported binary snapshot version %d", v))
	}
	count := int(data[9])
	headerLen := len(binMagic) + 2 + count*binSectionEntrySize
	if len(data) < headerLen+4 {
		return fail(int64(len(data)), "truncated section table")
	}
	wantCRC := binary.LittleEndian.Uint32(data[headerLen:])
	if got := crc32.Checksum(data[:headerLen], crcTable); got != wantCRC {
		return fail(int64(headerLen),
			fmt.Sprintf("section table checksum mismatch (got %08x, want %08x)", got, wantCRC))
	}
	sections := make(map[uint32][]byte, count)
	end := uint64(headerLen + 4)
	for i := 0; i < count; i++ {
		rowOff := len(binMagic) + 2 + i*binSectionEntrySize
		kind := binary.LittleEndian.Uint32(data[rowOff:])
		off := binary.LittleEndian.Uint64(data[rowOff+4:])
		length := binary.LittleEndian.Uint64(data[rowOff+12:])
		crc := binary.LittleEndian.Uint32(data[rowOff+20:])
		if _, dup := sections[kind]; dup {
			return fail(int64(rowOff), fmt.Sprintf("duplicate section kind %d", kind))
		}
		// Payloads must be contiguous and in table order: the image is
		// immutable, so any slack space is corruption, not flexibility.
		if off != end {
			return fail(int64(rowOff+4), fmt.Sprintf("section %d not contiguous: offset %d, want %d", kind, off, end))
		}
		if length > uint64(len(data))-off {
			return fail(int64(len(data)),
				fmt.Sprintf("truncated section %d: have %d of %d bytes", kind, uint64(len(data))-off, length))
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return fail(int64(off),
				fmt.Sprintf("section %d checksum mismatch (got %08x, want %08x)", kind, got, crc))
		}
		sections[kind] = payload
		end = off + length
	}
	if end != uint64(len(data)) {
		return fail(int64(end), fmt.Sprintf("%d trailing bytes after last section", uint64(len(data))-end))
	}
	return sections, nil
}

// binRequire fetches a mandatory section.
func binRequire(path string, sections map[uint32][]byte, kind uint32) ([]byte, error) {
	payload, ok := sections[kind]
	if !ok {
		return nil, &CorruptSnapshotError{Path: path, Offset: 9, Reason: fmt.Sprintf("missing section kind %d", kind)}
	}
	return payload, nil
}

// encodeBinaryMeta packs the meta section: logical schema version,
// capture time and WAL epoch barrier. The version is recorded verbatim;
// RestoreBytes validates it.
func encodeBinaryMeta(version int, savedAt time.Time, walSeg uint64) []byte {
	meta := make([]byte, 0, binMetaSize)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(version))
	var nano int64
	if !savedAt.IsZero() {
		nano = savedAt.UnixNano()
	}
	meta = binary.LittleEndian.AppendUint64(meta, uint64(nano))
	return binary.LittleEndian.AppendUint64(meta, walSeg)
}

// decodeBinaryMeta inverts encodeBinaryMeta.
func decodeBinaryMeta(path string, payload []byte) (version uint64, savedAt time.Time, walSeg uint64, err error) {
	if len(payload) != binMetaSize {
		return 0, time.Time{}, 0, &CorruptSnapshotError{Path: path, Offset: 0,
			Reason: fmt.Sprintf("meta section is %d bytes, want %d", len(payload), binMetaSize)}
	}
	version = binary.LittleEndian.Uint64(payload)
	if nano := int64(binary.LittleEndian.Uint64(payload[8:])); nano != 0 {
		savedAt = time.Unix(0, nano).UTC()
	}
	walSeg = binary.LittleEndian.Uint64(payload[16:])
	return version, savedAt, walSeg, nil
}

// wrapIndexErr converts an index codec error into a CorruptSnapshotError
// whose offset points into the snapshot file (section start + payload
// offset), so operators can locate the damage with one number.
func wrapIndexErr(path string, data, payload []byte, err error) error {
	if err == nil {
		return nil
	}
	var ce *index.CodecError
	if errors.As(err, &ce) {
		off := int64(ce.Offset)
		// payload is a sub-slice of data; recover its file offset.
		if len(payload) > 0 && len(data) > 0 {
			if base := sliceOffset(data, payload); base >= 0 {
				off += base
			}
		}
		return &CorruptSnapshotError{Path: path, Offset: off, Reason: ce.Reason}
	}
	return err
}

// sliceOffset returns sub's byte offset within data, or -1 when sub is
// not a sub-slice of data. Both slices share a backing array, so the
// offset falls out of the capacity difference; the pointer comparison
// verifies the candidate rather than trusting it.
func sliceOffset(data, sub []byte) int64 {
	if len(sub) == 0 || cap(sub) > cap(data) {
		return -1
	}
	off := cap(data) - cap(sub)
	if off < 0 || off+len(sub) > len(data) || &data[off] != &sub[0] {
		return -1
	}
	return int64(off)
}

// CaptureBytes encodes the live tracker and registry straight into a
// BFLOWSNB image: the index DBs append their binary snapshots directly, so
// the cost is one walk over the postings plus the (small) registry/audit
// JSON. It is safe beside observes and index maintenance: each DB's section
// is a consistent cut of that DB (see index.AppendSnapshot); the paragraph
// DB, document DB, registry and audit log are captured one after another.
// A caller that needs the four aligned with each other and with a WAL
// position holds Durable's barrier around the call.
func CaptureBytes(tracker *disclosure.Tracker, registry *tdm.Registry, walSeg uint64) ([]byte, error) {
	pars := tracker.Paragraphs().AppendSnapshot(nil)
	docs := tracker.Documents().AppendSnapshot(nil)
	reg, err := json.Marshal(registry.Export())
	if err != nil {
		return nil, fmt.Errorf("store: capture registry: %w", err)
	}
	aud, err := json.Marshal(registry.Audit().Entries())
	if err != nil {
		return nil, fmt.Errorf("store: capture audit: %w", err)
	}
	return frameBinary([]binSection{
		{secMeta, encodeBinaryMeta(SnapshotVersion, time.Now().UTC(), walSeg)},
		{secParagraphs, pars},
		{secDocuments, docs},
		{secRegistry, reg},
		{secAudit, aud},
	}), nil
}

// BinaryMeta is what RestoreBytes reports about a restored image.
type BinaryMeta struct {
	SavedAt time.Time
	WALSeg  uint64
}

// RestoreBytes bulk-loads a BFLOWSNB image into tracker and registry,
// replacing their state. The fingerprint databases are rebuilt with
// index.PrepareSnapshot/CommitSnapshot (compacted runs built in place);
// data may be a memory mapping, nothing in the restored state aliases it.
// On error nothing has been replaced.
func RestoreBytes(path string, data []byte, tracker *disclosure.Tracker, registry *tdm.Registry) (BinaryMeta, error) {
	sections, err := parseBinary(path, data)
	if err != nil {
		return BinaryMeta{}, err
	}
	meta, err := binRequire(path, sections, secMeta)
	if err != nil {
		return BinaryMeta{}, err
	}
	version, savedAt, walSeg, err := decodeBinaryMeta(path, meta)
	if err != nil {
		return BinaryMeta{}, err
	}
	if version != SnapshotVersion {
		return BinaryMeta{}, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	// Parse the small JSON sections before touching tracker state, so the
	// most common corruption (which the CRCs already screen) cannot leave
	// a half-restored registry.
	reg, err := binRequire(path, sections, secRegistry)
	if err != nil {
		return BinaryMeta{}, err
	}
	var regData tdm.ExportData
	if err := json.Unmarshal(reg, &regData); err != nil {
		return BinaryMeta{}, fmt.Errorf("store: decode registry: %w", err)
	}
	aud, err := binRequire(path, sections, secAudit)
	if err != nil {
		return BinaryMeta{}, err
	}
	var entries []audit.Entry
	if err := json.Unmarshal(aud, &entries); err != nil {
		return BinaryMeta{}, fmt.Errorf("store: decode audit: %w", err)
	}
	pars, err := binRequire(path, sections, secParagraphs)
	if err != nil {
		return BinaryMeta{}, err
	}
	docs, err := binRequire(path, sections, secDocuments)
	if err != nil {
		return BinaryMeta{}, err
	}
	// Two-phase restore: both index payloads are decoded and validated
	// before either DB is replaced, so a corrupt documents section cannot
	// leave the paragraph DB already swapped (no partial load).
	parsPrep, err := tracker.Paragraphs().PrepareSnapshot(pars)
	if err != nil {
		return BinaryMeta{}, wrapIndexErr(path, data, pars, err)
	}
	docsPrep, err := tracker.Documents().PrepareSnapshot(docs)
	if err != nil {
		return BinaryMeta{}, wrapIndexErr(path, data, docs, err)
	}
	if err := registry.Import(regData); err != nil {
		return BinaryMeta{}, fmt.Errorf("store: restore registry: %w", err)
	}
	// Commit. Every restore — recovery, Middleware.Load, replica bootstrap,
	// split filter — passes here, so this is where the decisions cached
	// against the replaced index are dropped, not in each caller.
	tracker.Paragraphs().CommitSnapshot(parsPrep)
	tracker.Documents().CommitSnapshot(docsPrep)
	tracker.ResetCache()
	registry.Audit().Replace(entries)
	return BinaryMeta{SavedAt: savedAt, WALSeg: walSeg}, nil
}

// RestoreFile is RestoreBytes for an image stored at path: the file is
// memory-mapped when fs supports wal.MapFS (read whole otherwise) and
// unsealed first when it carries the BFLOWENC envelope, which requires
// the key it was saved with (ErrBadKey otherwise).
func RestoreFile(fs wal.FS, path string, key []byte, tracker *disclosure.Tracker, registry *tdm.Registry) (BinaryMeta, error) {
	data, release, _, err := wal.MapFile(fs, path)
	if err != nil {
		return BinaryMeta{}, fmt.Errorf("store: read snapshot: %w", err)
	}
	defer release() //nolint:errcheck
	plain, err := unsealSnapshot(data, key)
	if err != nil {
		return BinaryMeta{}, err
	}
	return RestoreBytes(path, plain, tracker, registry)
}

// SaveCheckpointBytes seals (when keyed) an image produced by CaptureBytes
// — or received verbatim from a replication primary — and installs it at
// path atomically and durably.
func SaveCheckpointBytes(fs wal.FS, path string, blob, key []byte) error {
	if key != nil {
		var err error
		if blob, err = seal(blob, key); err != nil {
			return err
		}
	}
	return saveBlobFS(fs, path, blob)
}

// RecoverNewestCheckpoint scans dir newest-first and restores the first
// checkpoint that loads cleanly into tracker and registry, skipping (and
// counting) corrupt files in favour of older spares. A checkpoint in a
// retired format is not skipped: falling back past it would silently drop
// the state it holds, so recovery fails with its *RetiredFormatError. It
// returns the restored checkpoint's WAL epoch barrier and file name; name
// is empty when the directory holds no loadable checkpoint. logf may be nil.
func RecoverNewestCheckpoint(fs wal.FS, dir string, key []byte, tracker *disclosure.Tracker, registry *tdm.Registry, logf func(string, ...interface{})) (barrier uint64, name string, corrupt int, err error) {
	if fs == nil {
		fs = wal.OSFS{}
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		return 0, "", 0, fmt.Errorf("store: read durable dir: %w", err)
	}
	var ckpts []uint64
	for _, n := range names {
		if seg, ok := ParseCheckpointName(n); ok {
			ckpts = append(ckpts, seg)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] }) // newest first
	for _, seg := range ckpts {
		n := CheckpointName(seg)
		meta, rerr := RestoreFile(fs, filepath.Join(dir, n), key, tracker, registry)
		var retired *RetiredFormatError
		if errors.As(rerr, &retired) {
			return 0, "", corrupt, rerr
		}
		if rerr != nil {
			corrupt++
			logf("store: skipping checkpoint %s: %v", n, rerr)
			continue
		}
		if meta.WALSeg == 0 {
			meta.WALSeg = seg
		}
		return meta.WALSeg, n, corrupt, nil
	}
	return 0, "", corrupt, nil
}
