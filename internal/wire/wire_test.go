package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Property: a sorted list front-coded entry by entry decodes to itself,
// each entry consuming exactly the bytes it was given.
func TestQuickFrontCodedRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		sort.Strings(raw)
		var buf []byte
		prev := ""
		for _, s := range raw {
			buf = AppendFrontCoded(buf, prev, s)
			prev = s
		}
		r := NewReader(buf)
		var id []byte
		for _, s := range raw {
			if id = r.FrontCoded(id); r.Err() != nil || string(id) != s {
				return false
			}
		}
		return r.Done("list") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrontCodedSharesPrefixes(t *testing.T) {
	buf := AppendFrontCoded(nil, "docs/e00-paste#p0", "docs/e00-paste#p1")
	if want := []byte{16, 1, '1'}; string(buf) != string(want) {
		t.Errorf("encoded %v, want %v", buf, want)
	}
}

// A malformed entry is refused with an *Error inside the payload, not read
// past the data or the previous entry.
func TestFrontCodedRejectsMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":                   {},
		"no length":               {0},
		"shares more than exists": {4, 0},
		"rest longer than data":   {0, 3, 'a', 'b'},
		"overlong shared varint":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
		"rest length near 2^64":   {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"shared length near 2^64": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
		"truncated rest varint":   {0, 0x80},
		"truncated shared varint": {0x80},
		"rest one byte too short": {3, 2, 'x'},
	} {
		r := NewReader(data)
		r.FrontCoded([]byte("abc"))
		var we *Error
		if err := r.Err(); !errors.As(err, &we) || we.Offset < 0 || we.Offset > len(data) {
			t.Errorf("%s: err = %v, want an *Error inside the payload", name, err)
		}
	}
	// The control: sharing exactly what the previous entry has is fine.
	r := NewReader([]byte{3, 1, 'd'})
	if id := r.FrontCoded([]byte("abc")); r.Done("entry") != nil || string(id) != "abcd" {
		t.Errorf("got (%q, %v), want abcd", id, r.Err())
	}
}

// Every fixed-width and varint read decodes what the standard encoders
// wrote, in the byte orders the formats use.
func TestReaderRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, 7)
	buf = binary.LittleEndian.AppendUint64(buf, 1<<60+3)
	buf = binary.BigEndian.AppendUint32(buf, 0xdeadbeef)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0.3))
	buf = binary.AppendUvarint(buf, 300)
	buf = AppendString(buf, "wiki/plan#p0")
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 1, 2, 3, 4, 5, 6, 7, 8)

	r := NewReader(buf)
	if b, u, w, f, v, s := r.Byte("b"), r.U64("u"), r.U32("w"), r.F64("f"), r.Uvarint("v"), r.String("s"); b != 7 ||
		u != 1<<60+3 || w != 0xdeadbeef || f != 0.3 || v != 300 || s != "wiki/plan#p0" {
		t.Errorf("read %d %d %#x %v %d %q", b, u, w, f, v, s)
	}
	if n := r.Count("pairs", 4); n != 2 || r.U32("x") != 0x01020304 || r.U32("y") != 0x05060708 {
		t.Errorf("count %d", n)
	}
	if err := r.Done("payload"); err != nil {
		t.Fatal(err)
	}
}

// Count bounds a declared length by division: 2^62 entries of four bytes
// each is 2^64 bytes, which wraps to 0 as a product, and must fail here
// instead of reaching an allocation.
func TestCountCannotOverflow(t *testing.T) {
	for _, n := range []uint64{1 << 62, 1<<62 + 1, math.MaxUint64, 3} {
		r := NewReader(append(binary.AppendUvarint(nil, n), 0, 0, 0, 0, 0, 0, 0, 0))
		if got := r.Count("hashes", 4); got != 0 || r.Err() == nil {
			t.Errorf("Count of %d four-byte entries in 8 bytes = %d, %v; want a failure", n, got, r.Err())
		}
	}
	r := NewReader(append(binary.AppendUvarint(nil, 2), 0, 0, 0, 0, 0, 0, 0, 0))
	if got := r.Count("hashes", 4); got != 2 || r.Err() != nil {
		t.Errorf("Count of 2 four-byte entries in 8 bytes = %d, %v", got, r.Err())
	}
}

// The first failure sticks: later reads return zero without moving, and
// Done reports the first failure, not a later one or the trailing bytes.
func TestReaderFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{5, 'a', 0xff})
	if s := r.String("name"); s != "" {
		t.Errorf("String over a short payload = %q", s)
	}
	first := r.Err()
	var we *Error
	if !errors.As(first, &we) || we.Offset != 1 {
		t.Fatalf("err = %v, want an *Error at offset 1 (after the length)", first)
	}
	if r.Byte("b") != 0 || r.Uvarint("v") != 0 || r.U64("u") != 0 || r.Len() != 2 {
		t.Errorf("reads after a failure returned data or moved (%d bytes left)", r.Len())
	}
	if err := r.Done("payload"); err != first {
		t.Errorf("Done = %v, want the first failure %v", err, first)
	}
	if err := NewReader([]byte{1, 2}).Done("payload"); err == nil {
		t.Error("Done accepted unread bytes")
	}
}
