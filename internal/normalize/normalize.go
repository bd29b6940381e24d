// Package normalize implements step S1 of BrowserFlow's fingerprinting
// pipeline (§4.1): text segments are normalised by removing punctuation and
// whitespace and by folding character case, so that cosmetic edits do not
// perturb fingerprints. "Hello World!" becomes "helloworld".
//
// The package also keeps a byte-offset map back into the original text so
// that fingerprint hashes can be attributed to the exact source passage that
// caused an information disclosure (§4.1: "Provided that the location of the
// corresponding source text for each hash in the fingerprint is also stored,
// it becomes possible to attribute accurately which text segment passages
// caused information disclosure").
package normalize

import (
	"unicode"
	"unicode/utf8"
)

// Result is a normalised text together with a mapping from each normalised
// byte back to the byte offset of the originating rune in the source text.
type Result struct {
	// Orig is the original input string.
	Orig string

	// Text is the normalised text: lower-case letters and digits only.
	Text string

	// Offsets has one entry per byte of Text; Offsets[i] is the byte offset
	// in the original string of the rune that produced Text[i]. int32
	// keeps the map compact on the fingerprinting hot path; segments are
	// paragraphs and pages, far below 2 GiB.
	Offsets []int32
}

// Normalize lower-cases s and drops every rune that is not a letter or a
// digit, recording the origin of each surviving byte.
func Normalize(s string) Result {
	buf := make([]byte, 0, len(s))
	offsets := make([]int32, 0, len(s))
	var enc [utf8.UTFMax]byte
	for i, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		lr := unicode.ToLower(r)
		n := utf8.EncodeRune(enc[:], lr)
		buf = append(buf, enc[:n]...)
		for j := 0; j < n; j++ {
			offsets = append(offsets, int32(i))
		}
	}
	return Result{Orig: s, Text: string(buf), Offsets: offsets}
}

// AppendText appends the normalised form of s (lower-case letters and
// digits only) to buf and returns the extended slice, without recording
// origin offsets. It is the capacity-reusing path for callers that need
// hashes but not attribution: with sufficient capacity in buf the call
// performs no allocations.
func AppendText(buf []byte, s string) []byte {
	var enc [utf8.UTFMax]byte
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		n := utf8.EncodeRune(enc[:], unicode.ToLower(r))
		buf = append(buf, enc[:n]...)
	}
	return buf
}

// OrigRange maps a half-open byte range [start, end) of the normalised text
// to the corresponding half-open byte range in the original text, covering
// every originating rune. It returns (0, 0) for an empty or out-of-bounds
// range.
func (r Result) OrigRange(start, end int) (int, int) {
	if start < 0 || end > len(r.Offsets) || start >= end {
		return 0, 0
	}
	origStart := int(r.Offsets[start])
	last := int(r.Offsets[end-1])
	_, size := utf8.DecodeRuneInString(r.Orig[last:])
	if size == 0 {
		size = 1
	}
	return origStart, last + size
}
