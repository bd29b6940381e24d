// Package wire is the one reader of the binary payloads the program reads
// back from disk or from a peer: the index and registry sections of the
// BFLOWSNB state image and the binary WAL records (see internal/index,
// internal/tdm and internal/store for the layouts). Every read is bounds
// checked, and every malformed payload is an *Error carrying the payload
// offset where decoding failed; a payload can make a decoder fail, never
// panic or allocate more than its own size allows.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Error reports a malformed payload, with the byte offset (relative to the
// payload) where decoding failed.
type Error struct {
	Offset int
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("wire: corrupt payload at offset %d: %s", e.Offset, e.Reason)
}

// Reader reads a payload front to back. The first failure sticks: every
// read after it returns the zero value and leaves the offset where the
// failure was, so a decoder validates what it read where it reads it and
// asks for the error once, from Done. The what arguments name the field in
// the failure's reason.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a failure at the current offset, unless one is recorded
// already, and returns the first.
func (r *Reader) Fail(reason string) error {
	if r.err == nil {
		r.err = &Error{Offset: r.off, Reason: reason}
	}
	return r.err
}

// Done fails unless every byte has been read, and returns the first
// failure.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.data) {
		r.Fail("trailing bytes after " + what)
	}
	return r.err
}

// next consumes n bytes, or fails and returns nil.
func (r *Reader) next(n int, what string) []byte {
	if r.err != nil || r.Len() < n {
		r.Fail("truncated " + what)
		return nil
	}
	r.off += n
	return r.data[r.off-n : r.off]
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if b := r.next(1, what); b != nil {
		return b[0]
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if b := r.next(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32(what string) uint32 {
	if b := r.next(4, what); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// F64 reads the IEEE 754 bits of a float64, big endian.
func (r *Reader) F64(what string) float64 {
	if b := r.next(8, what); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Fail("truncated or overlong varint: " + what)
		return 0
	}
	r.off += n
	return v
}

// Count reads the uvarint length of a list whose entries take at least
// min bytes each, and fails when the rest of the payload cannot hold that
// many: a corrupt length cannot ask for more memory than the payload could
// fill. The bound divides, so no length overflows it.
func (r *Reader) Count(what string, min int) int {
	n := r.Uvarint(what)
	if n > uint64(r.Len()/min) {
		r.Fail(what + " exceeds payload")
		return 0
	}
	return int(n)
}

// String reads what AppendString wrote.
func (r *Reader) String(what string) string {
	return string(r.next(r.Count(what, 1), what))
}

// AppendString appends s as its uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// FrontCoded reads one entry of a front-coded list (AppendFrontCoded).
// prev holds the entry before it and is overwritten in place with this
// one, which is returned.
func (r *Reader) FrontCoded(prev []byte) []byte {
	shared := r.Uvarint("front-coded shared length")
	if shared > uint64(len(prev)) {
		r.Fail("front-coded entry shares more bytes than the one before it has")
		return prev
	}
	rest := r.next(r.Count("front-coded suffix", 1), "front-coded suffix")
	return append(prev[:shared], rest...)
}

// AppendFrontCoded appends s as one entry of a front-coded list: how many
// leading bytes it shares with prev, the entry before it ("" for the
// first), then the length and the bytes of the rest. A sorted segment list
// repeats long prefixes ("docs/e00-paste#p0", "docs/e00-paste#p1"); the
// state image stores each once.
func AppendFrontCoded(buf []byte, prev, s string) []byte {
	shared := 0
	for shared < len(prev) && shared < len(s) && prev[shared] == s[shared] {
		shared++
	}
	buf = binary.AppendUvarint(buf, uint64(shared))
	return AppendString(buf, s[shared:])
}
