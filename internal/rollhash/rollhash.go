// Package rollhash implements a 32-bit Karp–Rabin rolling hash over
// fixed-length byte windows.
//
// It is the hash function used in step S2 of BrowserFlow's fingerprinting
// pipeline (§4.1 of the paper): every n-gram of the normalised text is hashed
// with an efficient rolling hash so that fingerprinting a text segment costs
// O(len) regardless of the n-gram length.
package rollhash

import "errors"

// Base is the multiplier of the polynomial hash. It is a prime chosen so that
// consecutive window hashes distribute well across the 32-bit space.
const Base uint32 = 16777619

// ErrWindowSize reports an invalid (non-positive) window length.
var ErrWindowSize = errors.New("rollhash: window length must be positive")

// Hasher computes rolling hashes over a sliding window of n bytes.
//
// Feed bytes one at a time with Roll; once n bytes have been written, Roll
// reports the hash of the last n bytes. The zero value is not usable; create
// a Hasher with New.
type Hasher struct {
	n     int
	pow   uint32 // Base^(n-1), used to remove the outgoing byte
	hash  uint32
	ring  []byte
	pos   int
	count int
}

// New returns a Hasher over windows of n bytes.
func New(n int) (*Hasher, error) {
	h := &Hasher{}
	if err := h.Init(n); err != nil {
		return nil, err
	}
	return h, nil
}

// Init (re)configures h for windows of n bytes, clearing any buffered
// state. The ring buffer is reused when it already has capacity, so a
// Hasher embedded in a caller's scratch space can switch window lengths —
// or be reset for a new input — without allocating.
func (h *Hasher) Init(n int) error {
	if n <= 0 {
		return ErrWindowSize
	}
	pow := uint32(1)
	for i := 0; i < n-1; i++ {
		pow *= Base
	}
	h.n = n
	h.pow = pow
	if cap(h.ring) < n {
		h.ring = make([]byte, n)
	} else {
		h.ring = h.ring[:n]
	}
	h.Reset()
	return nil
}

// Roll feeds one byte into the window. It returns the hash of the most
// recent n bytes and true once at least n bytes have been written; before
// that it returns 0 and false.
func (h *Hasher) Roll(b byte) (uint32, bool) {
	if h.count >= h.n {
		out := h.ring[h.pos]
		h.hash -= uint32(out) * h.pow
	} else {
		h.count++
	}
	h.hash = h.hash*Base + uint32(b)
	h.ring[h.pos] = b
	h.pos++
	if h.pos == h.n {
		h.pos = 0
	}
	if h.count < h.n {
		return 0, false
	}
	return h.hash, true
}

// Reset clears the window so the Hasher can be reused on a new input.
func (h *Hasher) Reset() {
	h.hash = 0
	h.pos = 0
	h.count = 0
}

// Sum returns the hash of data, which must be exactly one window long for
// the result to be comparable with Roll outputs of a Hasher with n ==
// len(data). It is primarily a test oracle: Sum(data) equals the rolling
// hash produced after writing each byte of data in order.
func Sum(data []byte) uint32 {
	var hash uint32
	for _, b := range data {
		hash = hash*Base + uint32(b)
	}
	return hash
}

// AppendNGrams appends the rolling hashes of every n-gram of data to dst
// and returns the extended slice, resetting h first. Inputs shorter than
// one window append nothing. With a warm Hasher and sufficient capacity in
// dst the call performs no allocations — the S2 building block of the
// zero-allocation fingerprinting scratch path.
func (h *Hasher) AppendNGrams(dst []uint32, data []byte) []uint32 {
	if len(data) < h.n {
		return dst
	}
	h.Reset()
	for _, b := range data {
		if v, ok := h.Roll(b); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendNGrams appends the rolling hashes of every n-gram of data to dst,
// in order; it appends nothing when data holds fewer than n bytes.
func AppendNGrams(dst []uint32, data []byte, n int) ([]uint32, error) {
	var h Hasher
	if err := h.Init(n); err != nil {
		return dst, err
	}
	return h.AppendNGrams(dst, data), nil
}
