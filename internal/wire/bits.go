package wire

import (
	"encoding/binary"
	"math/bits"
)

// BitWriter writes the bit stream AppendBits appends, least significant
// bit of each byte first. Besides fixed-width fields it writes three
// codes: unary (q one bits, then a zero), Rice (v>>k in unary, then the
// low k bits) and Elias-γ (v's bit length less one in unary, then the
// bits below its leading one).
type BitWriter struct {
	buf   []byte
	start int    // where the stream begins in buf
	acc   uint64 // the bits not yet in buf, the oldest lowest; fewer than 8 between calls
	n     uint
}

// Len is the number of bits written so far.
func (w *BitWriter) Len() uint64 { return 8*uint64(len(w.buf)-w.start) + uint64(w.n) }

// Write appends the low n bits of v, n ≤ 64.
func (w *BitWriter) Write(v uint64, n uint) {
	if n > 32 {
		w.Write(v, 32)
		v, n = v>>32, n-32
	}
	for w.acc, w.n = w.acc|(v&(1<<n-1))<<w.n, w.n+n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// Unary appends q one bits and a zero.
func (w *BitWriter) Unary(q uint64) {
	for ; q >= 32; q -= 32 {
		w.Write(1<<32-1, 32)
	}
	w.Write(1<<q-1, uint(q)+1)
}

// Rice appends v with parameter k.
func (w *BitWriter) Rice(v uint64, k uint) {
	w.Unary(v >> k)
	w.Write(v, k)
}

// Gamma appends v ≥ 1.
func (w *BitWriter) Gamma(v uint64) {
	l := uint(bits.Len64(v)) - 1
	w.Unary(uint64(l))
	w.Write(v, l)
}

// AppendBits appends the bit stream write writes, zero-padded to a whole
// byte, after its length in bytes as a uvarint. The stream goes straight
// into buf, behind room for the longest length, and then moves down.
func AppendBits(buf []byte, write func(w *BitWriter)) []byte {
	start, body := len(buf), len(buf)+binary.MaxVarintLen64
	w := BitWriter{buf: append(buf, make([]byte, binary.MaxVarintLen64)...), start: body}
	if write(&w); w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
	}
	n := binary.PutUvarint(w.buf[start:], uint64(len(w.buf)-body))
	return append(w.buf[:start+n], w.buf[body:]...)
}

// BitReader reads a stream AppendBits wrote. Its failures are those of the
// Reader it came from, at the payload offset of the byte holding the first
// bit it could not read.
type BitReader struct {
	r          *Reader
	data       []byte
	base, next int    // the payload offset of data[0]; the first byte not in acc
	acc        uint64 // the n bits loaded and not read, the next lowest; past them, zeros or the bits that follow
	n          uint
}

// Bits reads what AppendBits wrote and returns the stream's reader.
func (r *Reader) Bits(what string) *BitReader {
	n := r.Count(what+" length", 1)
	base := r.off
	return &BitReader{r: r, data: r.next(n, what), base: base}
}

// Fail records a failure at the byte holding the next bit, unless one is
// recorded already.
func (b *BitReader) Fail(reason string) {
	if b.r.err == nil {
		b.r.err = &Error{Offset: b.base + int((uint(b.next)*8-b.n)/8), Reason: reason}
	}
}

// Read reads an n-bit field, n ≤ 64.
func (b *BitReader) Read(n uint, what string) uint64 {
	if n > 32 {
		lo := b.Read(32, what)
		return lo | b.Read(n-32, what)<<32
	}
	if b.n < n && b.next+8 <= len(b.data) { // as many whole bytes as fit, in one load
		b.acc |= binary.LittleEndian.Uint64(b.data[b.next:]) << b.n
		k := (63 - b.n) / 8
		b.next, b.n = b.next+int(k), b.n+8*k
	}
	for ; b.n < n && b.next < len(b.data); b.next++ {
		b.acc |= uint64(b.data[b.next]) << b.n
		b.n += 8
	}
	if b.r.err != nil || b.n < n {
		b.Fail("truncated " + what)
		return 0
	}
	v := b.acc & (1<<n - 1)
	b.acc, b.n = b.acc>>n, b.n-n
	return v
}

// Unary reads a unary count, and fails past max ones. The ones loaded
// already go in one step; Read loads more.
func (b *BitReader) Unary(max uint64, what string) uint64 {
	for q := uint64(0); ; q++ {
		ones := min(uint(bits.TrailingZeros64(^b.acc)), b.n)
		if b.acc, b.n, q = b.acc>>ones, b.n-ones, q+uint64(ones); q > max {
			b.Fail("over-long unary run: " + what)
			return 0
		}
		if b.Read(1, what) == 0 {
			return q
		}
	}
}

// Rice reads a Rice code with parameter k whose value is below 2^limit.
func (b *BitReader) Rice(k, limit uint, what string) uint64 {
	q := b.Unary((1<<limit-1)>>k, what)
	return q<<k | b.Read(k, what)
}

// Gamma reads an Elias-γ code.
func (b *BitReader) Gamma(what string) uint64 {
	l := uint(b.Unary(63, what))
	return 1<<l | b.Read(l, what)
}

// Done fails unless all that is left of the stream is the zero padding of
// its last byte.
func (b *BitReader) Done(what string) error {
	if b.n >= 8 || b.next < len(b.data) || b.acc&(1<<b.n-1) != 0 {
		b.Fail("trailing bits after " + what)
	}
	return b.r.err
}
