package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bitCode is one code of a test stream: a fixed-width field, a unary count,
// a Rice code or an Elias-γ code.
type bitCode struct {
	kind byte // 'w', 'u', 'r', 'g'
	v    uint64
	n    uint // the field's width, or the Rice parameter
}

func (c bitCode) write(w *BitWriter) {
	switch c.kind {
	case 'w':
		w.Write(c.v, c.n)
	case 'u':
		w.Unary(c.v)
	case 'r':
		w.Rice(c.v, c.n)
	case 'g':
		w.Gamma(c.v)
	}
}

func (c bitCode) read(b *BitReader) uint64 {
	switch c.kind {
	case 'w':
		return b.Read(c.n, "field")
	case 'u':
		return b.Unary(math.MaxUint64, "unary")
	case 'r':
		return b.Rice(c.n, 40, "rice")
	default:
		return b.Gamma("gamma")
	}
}

// randomCodes is a stream of every code at every width, values included
// at the edges of what each holds.
func randomCodes(rng *rand.Rand, n int) []bitCode {
	codes := make([]bitCode, n)
	for i := range codes {
		width := uint(rng.Intn(65))
		v := rng.Uint64()
		if width < 64 {
			v &= 1<<width - 1
		}
		switch rng.Intn(4) {
		case 0:
			codes[i] = bitCode{'w', v, width}
		case 1:
			codes[i] = bitCode{'u', uint64(rng.Intn(150)), 0}
		case 2:
			k := uint(rng.Intn(27))
			codes[i] = bitCode{'r', uint64(rng.Intn(1<<k*40 + 1)), k}
		default:
			codes[i] = bitCode{'g', max(v, 1), 0}
		}
	}
	return codes
}

// stream appends codes with AppendBits behind a two-byte prefix, and
// returns the payload with the stream offset of each code's first bit.
func stream(codes []bitCode) (payload []byte, starts []int) {
	payload = AppendBits([]byte{0xAB, 0xCD}, func(w *BitWriter) {
		body := len(w.buf)
		for _, c := range codes {
			starts = append(starts, 8*(len(w.buf)-body)+int(w.n))
			c.write(w)
		}
	})
	return payload, starts
}

// Every code reads back what was written, and the stream ends exactly.
func TestBitStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		codes := randomCodes(rng, 1+rng.Intn(60))
		payload, _ := stream(codes)
		r := NewReader(payload)
		r.next(2, "prefix")
		b := r.Bits("stream")
		for i, c := range codes {
			if got := c.read(b); got != c.v || r.Err() != nil {
				t.Fatalf("trial %d, code %d %+v: read %d, err %v", trial, i, c, got, r.Err())
			}
		}
		if err := b.Done("stream"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.Done("payload"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// A stream cut short anywhere fails with an *Error at an offset between the
// first bit of the code that could not be read and the cut.
func TestBitStreamTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	codes := randomCodes(rng, 40)
	payload, starts := stream(codes)
	n, k := binary.Uvarint(payload[2:])
	for cut := 0; cut < int(n); cut++ {
		short := binary.AppendUvarint([]byte{0xAB, 0xCD}, uint64(cut))
		body := len(short)
		short = append(short, payload[2+k:2+k+cut]...)
		r := NewReader(short)
		r.next(2, "prefix")
		b := r.Bits("stream")
		failed := -1
		for i, c := range codes {
			if c.read(b); r.Err() != nil {
				failed = i
				break
			}
		}
		var e *Error
		if !errors.As(r.Err(), &e) || failed < 0 {
			t.Fatalf("cut at %d bytes: err %v after code %d, want an *Error", cut, r.Err(), failed)
		}
		if lo, hi := body+starts[failed]/8, len(short); e.Offset < lo || e.Offset > hi {
			t.Fatalf("cut at %d bytes: code %d fails at offset %d, want within [%d, %d]", cut, failed, e.Offset, lo, hi)
		}
	}
}

// Unary runs are bounded: one past the limit fails, as does a γ length of
// 64 bits or more and a Rice quotient past its limit.
func TestBitStreamRejectsOverlongUnary(t *testing.T) {
	read := func(write func(w *BitWriter), read func(b *BitReader)) error {
		r := NewReader(AppendBits(nil, write))
		read(r.Bits("stream"))
		return r.Err()
	}
	if err := read(func(w *BitWriter) { w.Unary(3) }, func(b *BitReader) { b.Unary(3, "run") }); err != nil {
		t.Errorf("a run at the limit: %v", err)
	}
	var e *Error
	for name, err := range map[string]error{
		"unary":  read(func(w *BitWriter) { w.Unary(4) }, func(b *BitReader) { b.Unary(3, "run") }),
		"γ":      read(func(w *BitWriter) { w.Unary(64); w.Write(0, 64) }, func(b *BitReader) { b.Gamma("gamma") }),
		"Rice":   read(func(w *BitWriter) { w.Rice(1<<10, 2) }, func(b *BitReader) { b.Rice(2, 10, "rice") }),
		"no end": read(func(w *BitWriter) { w.Write(1<<24-1, 24) }, func(b *BitReader) { b.Unary(math.MaxUint64, "run") }),
	} {
		if !errors.As(err, &e) {
			t.Errorf("%s: err %v, want an *Error", name, err)
		}
	}
}

// Done accepts only the zero padding of the last byte.
func TestBitStreamDone(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read uint
		ok   bool
	}{
		"padding":          {[]byte{0b0000_0101}, 3, true},
		"a set pad bit":    {[]byte{0b0001_0101}, 3, false},
		"a byte unread":    {[]byte{0b0000_0101, 0}, 3, false},
		"every bit read":   {[]byte{0xFF}, 8, true},
		"nothing, nothing": {nil, 0, true},
	} {
		r := NewReader(append([]byte{byte(len(tc.data))}, tc.data...))
		b := r.Bits("stream")
		b.Read(tc.read, "bits")
		if err := b.Done("stream"); (err == nil) != tc.ok {
			t.Errorf("%s: Done = %v, want ok %v", name, err, tc.ok)
		}
	}
}
