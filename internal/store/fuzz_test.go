package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wal"
)

// FuzzRestoreBinarySnapshot throws arbitrary bytes at the one file-level
// restore route — unseal (without a key and with one), then RestoreBytes —
// which is what a recovering process runs over whatever it finds on disk
// after a crash, and each input a second time with its checksums made
// valid (refreshCRCs), which is what a bootstrapping standby runs over
// bytes from the network: the sender chooses the CRCs, so only the payload
// decoders stand between a mutation and the state. The contract under
// test: never panic; reject corruption with a *CorruptSnapshotError
// carrying a non-negative file offset; refuse a retired format with a
// *RetiredFormatError and a newer container version with a
// *NewerFormatError, never as corruption; and never commit a partial load —
// after a rejected restore the index and the decision cache are exactly
// what they were.
func FuzzRestoreBinarySnapshot(f *testing.F) {
	key := DeriveKey("fuzz-passphrase")
	tracker, registry := buildState(f)
	valid, err := CaptureBytes(tracker, registry, 7, testEpoch)
	if err != nil {
		f.Fatal(err)
	}
	im, err := parseBinary("seed", valid)
	if err != nil {
		f.Fatal(err)
	}
	listedTracker, listedRegistry := listedState(f)
	listed, err := CaptureBytes(listedTracker, listedRegistry, 7, testEpoch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)                                      // container version 7
	f.Add(listed)                                     // version 7, segments listed beside the table's codes
	f.Add(shapesImage(f))                             // version 7, every group shape
	f.Add(editsImage(f))                              // version 7, stamp distances of an edit history
	f.Add(readFixture(f, pr22Image))                  // container version 6: index codec 3
	f.Add(frameImage(binVersionRetired, im.sections)) // retired version 5
	f.Add(frameImage(binVersion+1, im.sections))      // newer
	f.Add(valid[:len(valid)-1])                       // truncated last section
	f.Add(valid[:9])                                  // truncated section table
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x80 // payload bit flip
	f.Add(flip)
	tail := append(append([]byte(nil), valid...), 0xAA) // garbage tail
	f.Add(tail)
	sealed, err := seal(valid, key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)                 // encrypted
	f.Add(sealed[:len(sealed)-1]) // damaged GCM tag
	f.Add([]byte("BFLOWENC"))     // encrypted magic, no body
	f.Add([]byte("BFLOWSNP"))     // retired framed-JSON magic, no header
	f.Add([]byte(`{`))            // retired bare JSON
	f.Add([]byte{})               // empty file

	// One state for all executions (building one per input costs the
	// fuzzer its throughput): a rejected restore must leave it as it was,
	// an accepted one replaces it.
	restore := func(t *testing.T, plain []byte) {
		before, cached, refs := tracker.Digest(), memoLen(tracker), tracker.Table().Len()
		meta, err := RestoreBytes("fuzz.bf", plain, tracker, registry)
		if err == nil {
			// An accepted restore starts with no memoised decision and
			// must be re-capturable.
			if n := memoLen(tracker); n != 0 {
				t.Fatalf("%d cached decisions survived a restore", n)
			}
			if _, err := CaptureBytes(tracker, registry, meta.WALSeg, testEpoch); err != nil {
				t.Fatalf("re-capture of accepted restore failed: %v", err)
			}
			// Warm the cache again for the next rejection to leave alone.
			if _, err := tracker.ObserveParagraph("fuzz/warm#p0", secretText); err != nil {
				t.Fatal(err)
			}
			return
		}
		var ce *CorruptSnapshotError
		if errors.As(err, &ce) && ce.Offset < 0 {
			t.Fatalf("negative corruption offset: %+v", ce)
		}
		var rfe *RetiredFormatError
		retiredVersion := IsBinarySnapshot(plain) && len(plain) > 8 && plain[8] < binVersionRead
		if retired := errors.As(err, &rfe); retiredFormat(plain) != "" && !retired || retired && retiredFormat(plain) == "" && !retiredVersion {
			t.Fatalf("retired format %q, container version retired %v, but err = %v", retiredFormat(plain), retiredVersion, err)
		}
		var nfe *NewerFormatError
		if errors.As(err, &nfe) && (!IsBinarySnapshot(plain) || int(plain[8]) != nfe.Version || nfe.Version <= binVersion) {
			t.Fatalf("err = %v for an image that does not say so", err)
		}
		if tracker.Digest() != before || memoLen(tracker) != cached || tracker.Table().Len() != refs {
			t.Fatalf("rejected restore touched the index, the decision cache or the segment table")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range [][]byte{nil, key} {
			plain, err := unsealSnapshot(data, k)
			if err != nil {
				if !errors.Is(err, ErrBadKey) {
					t.Fatalf("unseal failed with an untyped error: %v", err)
				}
				continue
			}
			restore(t, plain)
			restore(t, refreshCRCs(plain))
		}
	})
}

// shapesImage is a version 7 image whose paragraph section holds every
// group shape of the posting stream: single holders between the groups of
// a tail spelled out once and then repeated, and groups that are not plain
// — a later holder edited since it posted (stamped), one whose hashes left
// its fingerprint (stale), and a single holder edited since.
func shapesImage(t testing.TB) []byte {
	t.Helper()
	tracker, registry := buildState(t)
	texts := []string{
		"the pasted paragraph travels between documents with every copy it makes",
		"an edited holder keeps its first stamps below its last update",
		"a segment rewritten leaves its old hashes outside its fingerprint",
		"something else entirely, written in another place by another hand",
	}
	for _, o := range []struct {
		seg  segment.ID
		text string
	}{
		{"wiki/a#p0", texts[0] + " " + texts[1]},
		{"docs/b#p0", texts[0]},
		{"docs/c#p0", texts[0]},
		{"docs/d#p0", texts[1]},
		{"docs/d#p0", texts[1] + " " + texts[2]},
		{"docs/e#p0", texts[2]},
		{"docs/e#p0", texts[3]},
		{"docs/f#p0", "a paragraph that nobody else has written down"},
		{"docs/f#p0", "a paragraph that nobody else has written down, and then extended"},
	} {
		if _, err := tracker.ObserveParagraph(o.seg, o.text); err != nil {
			t.Fatal(err)
		}
	}
	image, err := CaptureBytes(tracker, registry, 3, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// editsImage is a version 7 image whose paragraph section holds an edit
// history: two paragraphs typed a word at a time, in turn, each keystroke
// observed, so both keep postings stamped below their updated at the
// distances the adaptive code follows.
func editsImage(t testing.TB) []byte {
	t.Helper()
	tracker, registry := buildState(t)
	words := strings.Fields("every keystroke observes the paragraph again and the words it adds post hashes at later stamps while the earlier ones keep theirs")
	for i := range words {
		if _, err := tracker.ObserveParagraph("docs/typed#p0", strings.Join(words[:i+1], " ")); err != nil {
			t.Fatal(err)
		}
		if _, err := tracker.ObserveParagraph("wiki/typed#p1", strings.Join(words[len(words)-1-i:], " ")); err != nil {
			t.Fatal(err)
		}
	}
	image, err := CaptureBytes(tracker, registry, 3, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// hugeHashCountRecords are, for each observe record type, a payload that
// declares 2^62 hashes after its well-formed head: four bytes a hash times
// that count is 2^64, which wraps to 0, so a bound that multiplies before
// it compares lets the count through to the allocation.
func hugeHashCountRecords() []wal.Record {
	seg, svc := []byte{1, 's'}, []byte{1, 'w'}
	huge := binary.AppendUvarint(nil, 1<<62)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []wal.Record{
		{Type: recObserve, Data: cat([]byte{granParagraph}, seg, svc, huge)},
		{Type: recObserveBatch, Data: cat(svc, []byte{1, granParagraph}, seg, huge)},
		{Type: recObserveResolved, Data: cat([]byte{granParagraph}, seg, svc, []byte{9}, huge)},
	}
}

// A declared hash count too large for the record is an error, not a panic,
// in every observe record decoder.
func TestDecodeObserveRejectsHugeHashCount(t *testing.T) {
	recs := hugeHashCountRecords()
	if _, err := decodeObserve(recs[0].Data); err == nil {
		t.Error("decodeObserve accepted 2^62 hashes")
	}
	if _, _, _, err := decodeObserveBatch(recs[1].Data); err == nil {
		t.Error("decodeObserveBatch accepted 2^62 hashes")
	}
	if _, err := decodeObserveResolved(recs[2].Data); err == nil {
		t.Error("decodeObserveResolved accepted 2^62 hashes")
	}
}

// FuzzApplyRecord throws arbitrary (type, payload) pairs at the record
// applier — the decoder a replica runs over bytes it received from the
// network and every node runs over its own log at recovery. The contract
// under test: never panic, whatever the payload; and Applied() advances
// exactly when Apply returns nil, so a rejected record is never counted as
// replayed. Seeds are one well-formed record of each of the ten types, a
// control record carrying its audit entry, and each observe type declaring
// more hashes than a record can hold.
func FuzzApplyRecord(f *testing.F) {
	fp := fingerprint.FromHashes([]uint32{1, 2, 3, 4, 5})
	seed := func(rec wal.Record, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Type, rec.Data)
	}
	seed(encodeObserve("wiki/fuzz#p0", "wiki", segment.GranularityParagraph, fp.Hashes(), "trace-1"))
	seed(encodeObserveBatch("docs", []disclosure.BatchObservation{
		{Seg: "docs/fuzz#p0", FP: fp},
		{Seg: "docs/fuzz", FP: fp, Granularity: segment.GranularityDocument},
	}, ""))
	for _, op := range []policy.ControlOp{
		{Kind: policy.ControlSuppress, User: "alice", Seg: "wiki/plan#p0", Tag: "tw", Justification: "ok"},
		{Kind: policy.ControlAllocateTag, User: "bob", Tag: "bob:x"},
		{Kind: policy.ControlAddSegmentTag, User: "bob", Seg: "wiki/plan#p0", Tag: "bob:x"},
		{Kind: policy.ControlGrantTag, User: "bob", Service: "docs", Tag: "bob:x"},
		{Kind: policy.ControlRevokeTag, User: "bob", Service: "docs", Tag: "bob:x"},
	} {
		seed(encodeControl(controlOp{ControlOp: op}))
	}
	seed(encodeControl(controlOp{
		ControlOp: policy.ControlOp{Kind: policy.ControlAllocateTag, User: "carol", Tag: "carol:y"},
		Audit:     []audit.Entry{{Seq: 1, Time: time.Unix(1, 0).UTC(), User: "carol", Action: audit.ActionAllocate, Tag: "carol:y"}},
	}))
	seed(encodeAudit([]audit.Entry{{Seq: 1, User: "alice", Action: "suppress", Tag: "tw", Segment: "wiki/plan#p0"}}))
	seed(encodeObserveResolved(observeResolvedOp{
		Seg: "docs/fuzz#p1", Service: "docs", G: segment.GranularityParagraph, Clock: 9,
		Hashes:  fp.Hashes(),
		Sources: []disclosure.Source{{Seg: "wiki/plan#p0", Disclosure: 1, Threshold: 0.5}},
		Tags:    map[segment.ID][]string{"wiki/plan#p0": {"tw"}},
	}))
	seed(encodePruneRange(0, 1<<20))
	for _, rec := range hugeHashCountRecords() {
		seed(rec, nil)
	}

	// One state for all executions, as a long-lived replica has.
	tracker, registry := buildState(f)
	applier, err := NewApplier(tracker, registry)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		before := applier.Applied()
		err := applier.Apply(wal.Record{Type: typ, Data: payload})
		if got := applier.Applied() - before; (err == nil) != (got == 1) || got < 0 || got > 1 {
			t.Fatalf("Apply(type %d) = %v, Applied() advanced by %d", typ, err, got)
		}
	})
}
