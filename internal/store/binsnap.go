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
// Version 7, the one written, holds the two fingerprint databases in the
// index package's codec 4 (a bit-coded posting stream, its stamp distances
// in an adaptive exp-Golomb code), the registry in the tdm package's codec
// 3 (each distinct label once, and a code per segment of the paragraph
// section's table in place of its ID); the audit section stays JSON — it
// is small and schema-flexible. Version 6 (index codec 3: stamp distances
// in Elias γ, each DBpar updated absolute) is still read, so an upgraded
// node recovers the checkpoint its predecessor wrote. Versions 5 (registry
// codec 2), 4 (registry codec 1), 3 (index codec 2) and 2 (index codec 1,
// JSON registry) are retired: refused by name (RetiredFormatError), as a
// version above 7 is (NewerFormatError), never skipped as damage.
//
// There is one way in and one way out. CaptureBytes encodes straight from
// the live DBs (index.AppendSnapshot, which takes its own consistent cut)
// into one buffer; RestoreBytes validates the whole image, then bulk-loads
// it with index.PrepareSnapshot/CommitSnapshot, which build the compacted
// runs directly. RestoreFile is RestoreBytes for a file: mapped when the
// filesystem supports it (wal.MapFS), unsealed when keyed.
//
// The formats that preceded BFLOWSNB, and its versions 2 to 5, are
// recognised only to be refused with a RetiredFormatError.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
	"github.com/lsds/browserflow/internal/wire"
)

// binMagic prefixes sectioned binary snapshots.
var binMagic = []byte("BFLOWSNB")

// binVersion is the container format version this build writes, and
// binVersionRead the oldest it reads; versions 2 to binVersionRetired are
// refused by name.
const (
	binVersion        = 7
	binVersionRead    = 6
	binVersionRetired = 5
)

// Section kinds. Unknown kinds are rejected: the format is immutable per
// version, not extensible in place.
const (
	secMeta       = 1 // fixed 24 bytes: schema version, savedAt, walSeg
	secParagraphs = 2 // index binary snapshot of the paragraph DB
	secDocuments  = 3 // index binary snapshot of the document DB
	secRegistry   = 4 // tdm.ExportData, binary
	secAudit      = 5 // []audit.Entry, JSON
)

// sectionNames names the section kinds for operators (bfctl fsck).
var sectionNames = map[uint32]string{secMeta: "meta", secParagraphs: "pars", secDocuments: "docs", secRegistry: "registry", secAudit: "audit"}

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

// binSection is one section of a parsed image: its kind, where its payload
// starts in the file, and the payload.
type binSection struct {
	kind    uint32
	off     int64
	payload []byte
}

// binImage is a container whose framing parseBinary has validated.
type binImage struct {
	path     string
	version  byte
	sections []binSection // in table order
}

// require fetches mandatory sections, in the order of kinds.
func (im *binImage) require(kinds ...uint32) ([]binSection, error) {
	out := make([]binSection, 0, len(kinds))
	for _, kind := range kinds {
		i := slices.IndexFunc(im.sections, func(s binSection) bool { return s.kind == kind })
		if i < 0 {
			return nil, &CorruptSnapshotError{Path: im.path, Offset: 9, Reason: fmt.Sprintf("missing section kind %d", kind)}
		}
		out = append(out, im.sections[i])
	}
	return out, nil
}

// parseBinary validates the container framing and returns the payload of
// each section. Errors are *CorruptSnapshotError with the offset of the
// first offending byte, or — for an image that is refused rather than
// damaged — *RetiredFormatError or *NewerFormatError.
func parseBinary(path string, data []byte) (*binImage, error) {
	fail := func(off int64, reason string) (*binImage, error) {
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
	version := data[8]
	if version < 2 { // the first sectioned container was version 2
		return fail(8, fmt.Sprintf("unsupported binary snapshot version %d", version))
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
	// The checksum covers the version byte: a version this build does not
	// know, under an intact header, was written by a newer build, and a
	// version below binVersionRead by one this build no longer follows.
	if version > binVersion {
		return nil, &NewerFormatError{Path: path, Version: int(version)}
	}
	if version < binVersionRead {
		return nil, &RetiredFormatError{Path: path, Format: fmt.Sprintf("BFLOWSNB version %d", version)}
	}
	im := &binImage{path: path, version: version, sections: make([]binSection, 0, count)}
	end := uint64(headerLen + 4)
	for i := 0; i < count; i++ {
		rowOff := len(binMagic) + 2 + i*binSectionEntrySize
		kind := binary.LittleEndian.Uint32(data[rowOff:])
		off := binary.LittleEndian.Uint64(data[rowOff+4:])
		length := binary.LittleEndian.Uint64(data[rowOff+12:])
		crc := binary.LittleEndian.Uint32(data[rowOff+20:])
		if slices.ContainsFunc(im.sections, func(s binSection) bool { return s.kind == kind }) {
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
		im.sections = append(im.sections, binSection{kind, int64(off), payload})
		end = off + length
	}
	if end != uint64(len(data)) {
		return fail(int64(end), fmt.Sprintf("%d trailing bytes after last section", uint64(len(data))-end))
	}
	return im, nil
}

// appendBinaryMeta appends the meta section: logical schema version,
// capture time and WAL epoch barrier. The version is recorded verbatim;
// RestoreBytes validates it.
func appendBinaryMeta(buf []byte, version int, savedAt time.Time, walSeg uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(version))
	var nano int64
	if !savedAt.IsZero() {
		nano = savedAt.UnixNano()
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nano))
	return binary.LittleEndian.AppendUint64(buf, walSeg)
}

// decodeBinaryMeta inverts appendBinaryMeta.
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

// wrapCodecErr converts a section payload's *wire.Error (index or
// registry) into a CorruptSnapshotError whose offset points into the
// snapshot file (section start + payload offset), so operators can locate
// the damage with one number.
func wrapCodecErr(path string, sec binSection, err error) error {
	var we *wire.Error
	if errors.As(err, &we) {
		return &CorruptSnapshotError{Path: path, Offset: sec.off + int64(we.Offset), Reason: we.Reason}
	}
	return err
}

// CaptureBytes encodes the live tracker and registry straight into a
// BFLOWSNB image: every section is appended to the one output buffer and
// the section table in front is filled in afterwards, so the cost is one
// walk over the postings and the labels and the image exists once. It is
// safe beside observes and index maintenance: each DB's section is a
// consistent cut of that DB (see index.AppendSnapshot); the paragraph DB,
// document DB, registry and audit log are captured one after another. The
// registry section names segments by the paragraph section's table and
// lists by ID those the table lacks, so it is exact whatever the cut. A
// caller that needs the four aligned with each other and with a WAL
// position holds Durable's barrier around the call. savedAt is the capture
// time the image records.
func CaptureBytes(tracker *disclosure.Tracker, registry *tdm.Registry, walSeg uint64, savedAt time.Time) ([]byte, error) {
	const sections = 5
	headerLen := len(binMagic) + 2 + sections*binSectionEntrySize
	// Sized from the counters for what the codecs typically spend — a hash
	// 3–4 bytes with its gap, first holder and shape, its later holders
	// little or nothing (a repeat), a segment its table entry, DBpar entry
	// and label — so the buffer seldom grows and is never far too big.
	size := headerLen + 4 + 1024
	for _, db := range []*index.DB{tracker.Paragraphs(), tracker.Documents()} {
		st := db.Stats()
		size += 4*st.DistinctHashes + 24*st.Segments
	}
	out := make([]byte, headerLen+4, size)
	copy(out, binMagic)
	out[8], out[9] = binVersion, sections
	written := 0
	section := func(kind uint32, payload func([]byte) []byte) {
		off := len(out)
		out = payload(out)
		row := out[len(binMagic)+2+written*binSectionEntrySize:]
		binary.LittleEndian.PutUint32(row, kind)
		binary.LittleEndian.PutUint64(row[4:], uint64(off))
		binary.LittleEndian.PutUint64(row[12:], uint64(len(out)-off))
		binary.LittleEndian.PutUint32(row[20:], crc32.Checksum(out[off:], crcTable))
		written++
	}
	section(secMeta, func(buf []byte) []byte { return appendBinaryMeta(buf, SnapshotVersion, savedAt, walSeg) })
	var table []segment.ID // the paragraph section's, which the registry section names segments by
	section(secParagraphs, func(buf []byte) []byte {
		buf, table = tracker.Paragraphs().AppendSnapshot(buf)
		return buf
	})
	section(secDocuments, func(buf []byte) []byte {
		buf, _ = tracker.Documents().AppendSnapshot(buf)
		return buf
	})
	section(secRegistry, func(buf []byte) []byte { return registry.Export().AppendBinary(buf, table) })
	aud, err := json.Marshal(registry.Audit().Entries())
	if err != nil {
		return nil, fmt.Errorf("store: capture audit: %w", err)
	}
	section(secAudit, func(buf []byte) []byte { return append(buf, aud...) })
	binary.LittleEndian.PutUint32(out[headerLen:], crc32.Checksum(out[:headerLen], crcTable))
	return out, nil
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
	im, err := parseBinary(path, data)
	if err != nil {
		return BinaryMeta{}, err
	}
	secs, err := im.require(secMeta, secRegistry, secAudit, secParagraphs, secDocuments)
	if err != nil {
		return BinaryMeta{}, err
	}
	meta, reg, aud, pars, docs := secs[0], secs[1], secs[2], secs[3], secs[4]
	version, savedAt, walSeg, err := decodeBinaryMeta(path, meta.payload)
	if err != nil {
		return BinaryMeta{}, err
	}
	if version != SnapshotVersion {
		return BinaryMeta{}, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	// Decode every section before touching tracker or registry state, so no
	// corruption — which the CRCs screen on disk, but not in an image sent to
	// a bootstrapping standby — can leave a partial load. The registry names
	// its segments by the paragraph section's table, so that comes first.
	parsPrep, err := tracker.Paragraphs().PrepareSnapshot(pars.payload)
	if err != nil {
		return BinaryMeta{}, wrapCodecErr(path, pars, err)
	}
	regData, err := tdm.DecodeExportData(reg.payload, parsPrep.Table())
	if err != nil {
		return BinaryMeta{}, wrapCodecErr(path, reg, err)
	}
	var entries []audit.Entry
	if err := json.Unmarshal(aud.payload, &entries); err != nil {
		return BinaryMeta{}, fmt.Errorf("store: decode audit: %w", err)
	}
	docsPrep, err := tracker.Documents().PrepareSnapshot(docs.payload)
	if err != nil {
		return BinaryMeta{}, wrapCodecErr(path, docs, err)
	}
	// Commit: every owner of rows on the segment table is replaced, so the
	// table starts over, the paragraph DB's image refs first. The decisions
	// made against the replaced index go with its rows.
	tracker.Table().Reset()
	tracker.Paragraphs().CommitSnapshot(parsPrep)
	tracker.Documents().CommitSnapshot(docsPrep)
	registry.Import(regData)
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
// counting) corrupt files in favour of older spares. An intact checkpoint
// in a format this build does not read — retired, or written by a newer
// build — is not skipped: falling back past it would silently drop the
// state it holds, so recovery fails with its *RetiredFormatError or
// *NewerFormatError. It
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
		if refusedFormat(rerr) {
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
