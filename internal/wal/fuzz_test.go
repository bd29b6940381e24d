package wal_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// segmentImage builds a valid segment file image for seeding the fuzzer.
func segmentImage(idx uint64, recs ...wal.Record) []byte {
	hdr := make([]byte, 17)
	copy(hdr, "BFWALSEG")
	hdr[8] = 1
	binary.BigEndian.PutUint64(hdr[9:17], idx)
	out := hdr
	for _, r := range recs {
		out = append(out, wal.EncodeFrame(r)...)
	}
	return out
}

// FuzzOpenSegment feeds arbitrary bytes to the WAL reader as the newest
// segment on disk. Whatever the bytes, Open must not panic; when it
// succeeds, Replay must yield only CRC-valid records and a second
// open-after-truncation must succeed (no silent partial state left
// behind). Every route into the one frame decoder must draw the line at
// the same byte: the records Open + Replay yield, the valid length the
// scrubber's VerifySegmentFile reports, and the prefix the replica's
// stream decoder DecodeFrames accepts.
func FuzzOpenSegment(f *testing.F) {
	f.Add(segmentImage(1))
	f.Add(segmentImage(1, wal.Record{Type: 1, Data: []byte("hello")}))
	f.Add(segmentImage(1,
		wal.Record{Type: 2, Data: []byte("first")},
		wal.Record{Type: 3, Data: nil},
	))
	f.Add(segmentImage(2, wal.Record{Type: 1, Data: []byte("wrong index")}))
	f.Add([]byte("BFWALSEG"))
	f.Add([]byte{})
	full := segmentImage(1, wal.Record{Type: 1, Data: []byte("torn tail target")})
	f.Add(full[:len(full)-3])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := faultinject.NewMemFS(1)
		dir := "/wal"
		if err := fs.MkdirAll(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, wal.SegmentName(1))
		h, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if _, err := h.Write(data); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()

		// Before Open repairs the file: what the other two routes accept.
		verified, validLen, _ := wal.VerifySegmentFile(fs, dir, 1, 0)
		var streamed []wal.Record
		if validLen >= wal.HeaderSize { // the header is sound
			var used int
			streamed, used = wal.DecodeFrames(data[wal.HeaderSize:], 0)
			if int64(wal.HeaderSize+used) != validLen {
				t.Errorf("DecodeFrames accepts %d bytes past the header, VerifySegmentFile %d", used, validLen-wal.HeaderSize)
			}
		}
		if verified != len(streamed) {
			t.Errorf("VerifySegmentFile counts %d records, DecodeFrames %d", verified, len(streamed))
		}

		l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.SyncNone})
		if err != nil {
			return // corrupt enough to reject outright is fine
		}
		count := 0
		if err := l.Replay(0, func(_ uint64, rec wal.Record) error {
			if count < len(streamed) && (rec.Type != streamed[count].Type || !bytes.Equal(rec.Data, streamed[count].Data)) {
				t.Errorf("record %d: Replay and DecodeFrames disagree", count)
			}
			count++
			return nil
		}); err != nil {
			t.Errorf("Open accepted the directory but Replay failed: %v", err)
		}
		if count != verified {
			t.Errorf("Open + Replay yield %d records, VerifySegmentFile %d", count, verified)
		}
		l.Close()

		// The tail Open truncated must stay clean: reopening cannot fail.
		l2, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.SyncNone})
		if err != nil {
			t.Fatalf("reopen after recovery failed: %v", err)
		}
		count2 := 0
		l2.Replay(0, func(uint64, wal.Record) error { count2++; return nil })
		if count2 != count {
			t.Errorf("recovered %d records, reopen sees %d", count, count2)
		}
		l2.Close()
	})
}
