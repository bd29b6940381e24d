package fingerprint

import (
	"github.com/lsds/browserflow/internal/normalize"
	"github.com/lsds/browserflow/internal/rollhash"
)

// Scratch holds every intermediate buffer of the fingerprinting pipeline —
// the normalised text, the rolling-hash state, the n-gram hash sequence,
// the winnowing ring and the selected-hash staging area — so repeated
// fingerprint computations reuse one fixed working set instead of
// reallocating it per call. This is what makes the per-keystroke observe
// loop allocation-free at steady state: once the buffers have grown to the
// size of the largest text seen, ComputeShared and AppendHashes perform no
// heap allocations at all.
//
// A Scratch is not safe for concurrent use; pool instances per goroutine
// (the disclosure tracker recycles one per observation via a sync.Pool).
// The zero value is ready to use.
type Scratch struct {
	hasher   rollhash.Hasher
	norm     []byte
	hashes   []uint32
	ring     []int
	selected []int
	raw      []uint32
	fp       Fingerprint
}

// AppendHashes appends the winnowed fingerprint hashes of text — distinct,
// ascending — to dst and returns the extended slice. It is equivalent to
// appending Compute(text, cfg).Hashes() but allocates no fingerprint value.
// dst must not alias any of sc's internal buffers (pass a caller-owned slice
// or nil).
func (sc *Scratch) AppendHashes(dst []uint32, text string, cfg Config) ([]uint32, error) {
	if err := cfg.Validate(); err != nil {
		return dst, err
	}
	sc.norm = normalize.AppendText(sc.norm[:0], text)
	if err := sc.hasher.Init(cfg.NGram); err != nil {
		return dst, err
	}
	sc.hashes = sc.hasher.AppendNGrams(sc.hashes[:0], sc.norm)
	if len(sc.hashes) == 0 {
		return dst, nil
	}
	if cap(sc.ring) < cfg.Window+1 {
		sc.ring = make([]int, cfg.Window+1)
	}
	sc.selected = winnowInto(sc.selected[:0], sc.hashes, cfg.Window, sc.ring[:cfg.Window+1])
	base := len(dst)
	for _, idx := range sc.selected {
		dst = append(dst, sc.hashes[idx])
	}
	// Sort and deduplicate the appended tail in place; the prefix of dst is
	// untouched.
	tail := sortedDistinct(dst[base:])
	return dst[:base+len(tail)], nil
}

// ComputeShared fingerprints text like Compute but returns a fingerprint
// that ALIASES the scratch: it is valid only until the next call on sc and
// MUST NOT be retained — callers that decide to keep it detach it first
// with Clone.
//
// At steady state the call performs zero heap allocations; that property
// is pinned by TestComputeSharedZeroAlloc.
func (sc *Scratch) ComputeShared(text string, cfg Config) (*Fingerprint, error) {
	raw, err := sc.AppendHashes(sc.raw[:0], text, cfg)
	if err != nil {
		return nil, err
	}
	sc.raw = raw
	sc.fp = Fingerprint{}
	if len(raw) > 0 {
		sc.fp.sorted = raw
	}
	return &sc.fp, nil
}

// Compute is ComputeShared with an owned result: the one allocation-bearing
// step is the Clone that detaches the hash set from the scratch, so the
// fingerprint is safe to retain.
func (sc *Scratch) Compute(text string, cfg Config) (*Fingerprint, error) {
	fp, err := sc.ComputeShared(text, cfg)
	if err != nil {
		return nil, err
	}
	return fp.Clone(), nil
}
