// Package fingerprint implements BrowserFlow's text fingerprinting (§4.1),
// an application of the winnowing algorithm (Schleimer et al., SIGMOD'03).
//
// A fingerprint is a small set of 32-bit hashes chosen from the n-gram
// hashes of the normalised text:
//
//	S1  normalise the text (see package normalize),
//	S2  hash every n-gram with a Karp–Rabin rolling hash (package rollhash),
//	S3  slide a window of w consecutive hashes over the hash sequence,
//	S4  keep the minimum hash of each window (rightmost on ties).
//
// Winnowing guarantees that any shared passage of at least w+n-1 characters
// between two texts contributes at least one common hash to both
// fingerprints, while small edits perturb only the hashes near the edit.
package fingerprint

import (
	"fmt"
	"slices"

	"github.com/lsds/browserflow/internal/normalize"
	"github.com/lsds/browserflow/internal/rollhash"
)

// Config holds the fingerprinting parameters. The paper's evaluation (§6)
// uses 32-bit hashes over 15-character n-grams with a window of 30.
type Config struct {
	// NGram is the n-gram length in normalised bytes (S2).
	NGram int

	// Window is the number of consecutive n-gram hashes per window (S3).
	Window int
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: n-grams of 15 characters and a window size of 30.
func DefaultConfig() Config {
	return Config{NGram: 15, Window: 30}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NGram <= 0 {
		return fmt.Errorf("fingerprint: NGram must be positive, got %d", c.NGram)
	}
	if c.Window <= 0 {
		return fmt.Errorf("fingerprint: Window must be positive, got %d", c.Window)
	}
	return nil
}

// GuaranteeThreshold returns the minimum shared passage length (in
// normalised characters) that is guaranteed to produce a common fingerprint
// hash: w + n - 1.
func (c Config) GuaranteeThreshold() int {
	return c.Window + c.NGram - 1
}

// Position attributes one selected hash to the passage of the original text
// that produced it.
type Position struct {
	// Hash is the selected n-gram hash.
	Hash uint32

	// Start and End delimit the originating n-gram in the *original*
	// (pre-normalisation) text, as byte offsets.
	Start int
	End   int
}

// Fingerprint is the set of winnowed hashes of one text segment — the hash
// set only. Where in the text each hash was selected is not part of the
// value (the index retains one Fingerprint per segment for its lifetime);
// attribution recomputes it from the text with Positions.
//
// The hash set is stored as an immutable ascending []uint32 computed once
// at construction. This makes the §4.3 hot path allocation-lean: Contains
// is a binary search, set operations (IntersectCount, Containment)
// are linear merges over the two sorted slices, and Hashes returns the
// internal slice without sorting or copying.
type Fingerprint struct {
	// sorted holds the distinct hashes in ascending order. It is never
	// mutated after the constructor returns.
	sorted []uint32
}

// Compute fingerprints text under cfg. Texts shorter than one n-gram (after
// normalisation) yield an empty fingerprint — the systematic false-negative
// source for very short paragraphs that §6.1 reports. Callers that
// fingerprint repeatedly keep a Scratch and call its Compute instead.
func Compute(text string, cfg Config) (*Fingerprint, error) {
	var sc Scratch
	return sc.Compute(text, cfg)
}

// Positions returns the hashes winnowing selects from text, in text order,
// each with the byte range of the original text whose n-gram produced it —
// §4.1's "location of the corresponding source text for each hash". The
// distinct hashes are exactly Compute(text, cfg).Hashes(); a hash selected
// at several places appears once per place. It is the only code that
// normalises with an origin map, and serves attribution, not the observe
// path.
func Positions(text string, cfg Config) ([]Position, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	norm := normalize.Normalize(text)
	var hasher rollhash.Hasher
	if err := hasher.Init(cfg.NGram); err != nil {
		return nil, err
	}
	hashes := hasher.AppendNGrams(nil, []byte(norm.Text))
	selected := winnow(hashes, cfg.Window)
	out := make([]Position, 0, len(selected))
	for _, idx := range selected {
		start, end := norm.OrigRange(idx, idx+cfg.NGram)
		out = append(out, Position{Hash: hashes[idx], Start: start, End: end})
	}
	return out, nil
}

// sortedDistinct sorts raw ascending and removes duplicates in place,
// returning the deduplicated prefix. The one sort at construction time
// replaces the per-call sort the old map representation paid in Hashes().
// slices.Sort specialises for the element type, so unlike sort.Slice it
// performs no reflection-based swapper or closure allocations.
func sortedDistinct(raw []uint32) []uint32 {
	if len(raw) == 0 {
		return nil
	}
	slices.Sort(raw)
	out := raw[:1]
	for _, h := range raw[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}

// winnow implements steps S3–S4: slide a window of `window` consecutive
// hashes and keep the index of the minimum of each window (rightmost on
// ties), recording each selection once. Texts shorter than one window
// yield their single global minimum.
//
// A monotonic deque gives O(n) total cost instead of the naive O(n·w):
// indices wait in the deque in strictly increasing hash order; pushing a
// new hash evicts every back entry with an equal-or-larger hash (equal
// included, which is what makes the front the *rightmost* minimal index of
// the window), and the front is evicted once it slides out of range.
func winnow(hashes []uint32, window int) []int {
	if len(hashes) == 0 {
		return nil
	}
	return winnowInto(nil, hashes, window, make([]int, window+1))
}

// winnowInto is the deque core of winnow: it appends the selected indices
// to dst, using ring (length window+1) as the candidate buffer, and
// returns the extended dst. Given capacity in both, it allocates nothing —
// the fixed scratch ring of the zero-allocation observe path.
func winnowInto(dst []int, hashes []uint32, window int, ring []int) []int {
	if len(hashes) == 0 {
		return dst
	}
	if len(hashes) <= window {
		return append(dst, minIndex(hashes, 0, len(hashes)))
	}
	// Ring buffer of candidate indices; head..tail (exclusive) in push
	// order, at most window entries live at once.
	n := len(ring)
	head, tail := 0, 0
	prevSel := -1
	for i, h := range hashes {
		for tail > head && hashes[ring[(tail-1)%n]] >= h {
			tail--
		}
		ring[tail%n] = i
		tail++
		if ring[head%n] <= i-window {
			head++
		}
		if i >= window-1 {
			if sel := ring[head%n]; sel != prevSel {
				dst = append(dst, sel)
				prevSel = sel
			}
		}
	}
	return dst
}

// minIndex returns the index of the rightmost minimum of hashes[lo:hi].
func minIndex(hashes []uint32, lo, hi int) int {
	best := lo
	for i := lo + 1; i < hi; i++ {
		if hashes[i] <= hashes[best] {
			best = i
		}
	}
	return best
}

// Len returns the number of distinct hashes in the fingerprint.
func (f *Fingerprint) Len() int { return len(f.sorted) }

// Empty reports whether the fingerprint selected no hashes (text shorter
// than one n-gram).
func (f *Fingerprint) Empty() bool { return len(f.sorted) == 0 }

// Contains reports whether h is one of the fingerprint's hashes. It is a
// branchless-friendly binary search over the sorted hash slice; a plain
// loop (rather than sort.Search) keeps the hot path free of closure
// allocations.
func (f *Fingerprint) Contains(h uint32) bool {
	lo, hi := 0, len(f.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.sorted[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(f.sorted) && f.sorted[lo] == h
}

// Hashes returns the distinct hashes in ascending order.
//
// The returned slice is the fingerprint's internal storage — it is shared,
// already sorted, and MUST NOT be modified. Returning it without a copy is
// what keeps the Algorithm 1 hot path (index updates, merge intersections,
// wire encoding) allocation-free; callers that need an owned copy should
// append to their own buffer.
func (f *Fingerprint) Hashes() []uint32 { return f.sorted }

// IntersectCount returns |f ∩ g| over distinct hashes. Both hash sets are
// sorted, so this is a single linear merge with no lookups or allocation.
func (f *Fingerprint) IntersectCount(g *Fingerprint) int {
	a, b := f.sorted, g.sorted
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Containment returns |f ∩ g| / |f|, the fraction of f's hashes found in g
// (Broder containment). It returns 0 for an empty f.
func (f *Fingerprint) Containment(g *Fingerprint) float64 {
	if f.Len() == 0 {
		return 0
	}
	return float64(f.IntersectCount(g)) / float64(f.Len())
}

// Digest returns an order-independent 64-bit summary of the hash set,
// suitable as a cache key for "has this fingerprint changed?" checks. Equal
// hash sets produce equal digests.
func (f *Fingerprint) Digest() uint64 {
	var sum, xor uint64
	for _, h := range f.sorted {
		v := uint64(h) * 0x9e3779b97f4a7c15
		sum += v
		xor ^= v
	}
	return sum ^ (xor << 1) ^ uint64(len(f.sorted))
}

// FromHashes builds a Fingerprint from a raw hash set. It is used when
// restoring persisted state and when deserialising wire requests. The input
// is copied, deduplicated and sorted; the caller keeps ownership of the
// argument slice.
func FromHashes(hashes []uint32) *Fingerprint {
	raw := make([]uint32, len(hashes))
	copy(raw, hashes)
	return &Fingerprint{sorted: sortedDistinct(raw)}
}

// Clone returns an owned deep copy of f. Its primary use is detaching a
// scratch-shared fingerprint (see Scratch.ComputeShared) from its scratch
// buffers at the moment a caller decides to retain it.
func (f *Fingerprint) Clone() *Fingerprint {
	g := &Fingerprint{}
	if len(f.sorted) > 0 {
		g.sorted = append(make([]uint32, 0, len(f.sorted)), f.sorted...)
	}
	return g
}

// FromSortedHashes builds a Fingerprint that takes ownership of hashes,
// which the caller promises are strictly ascending and never mutated
// afterwards — the allocation-free restore path used by binary snapshot
// recovery, where the decoder already produced a validated sorted slice.
// Input that breaks the promise falls back to the copying constructor, so
// the fingerprint invariant holds regardless.
func FromSortedHashes(hashes []uint32) *Fingerprint {
	for i := 1; i < len(hashes); i++ {
		if hashes[i] <= hashes[i-1] {
			return FromHashes(hashes)
		}
	}
	if len(hashes) == 0 {
		return &Fingerprint{}
	}
	return &Fingerprint{sorted: hashes}
}
