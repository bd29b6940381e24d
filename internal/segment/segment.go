// Package segment models BrowserFlow's text segments (§3.1, §4.1).
//
// BrowserFlow tracks text propagation at two granularities independently:
// individual paragraphs and entire documents. This package defines the
// segment identity scheme shared by the fingerprint index, the disclosure
// tracker and the TDM policy layer, splits raw document text into
// paragraphs the way the browser plug-in derives them from DOM elements,
// and holds the one in-memory home of per-segment state: a Table interns
// each segment ID once into a dense ref, and every owner of per-segment
// state keeps it as a Column of rows indexed by that ref.
package segment

import (
	"fmt"
	"strings"
)

// Granularity selects one of the two tracking granularities of §4.1.
type Granularity int

const (
	// GranularityParagraph tracks individual paragraphs.
	GranularityParagraph Granularity = iota + 1

	// GranularityDocument tracks whole documents.
	GranularityDocument
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranularityParagraph:
		return "paragraph"
	case GranularityDocument:
		return "document"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// DocumentID identifies a document within a service, e.g. "wiki/interview-guidelines".
type DocumentID string

// ID identifies one trackable text segment: either a whole document or one
// of its paragraphs.
type ID string

// DocSegmentID returns the segment ID of the whole document.
func DocSegmentID(doc DocumentID) ID {
	return ID(string(doc))
}

// ParSegmentID returns the segment ID for paragraph key within doc. The key
// is stable for the lifetime of the paragraph (in the browser it is the DOM
// element identity; for corpora it is the paragraph index).
func ParSegmentID(doc DocumentID, key string) ID {
	return ID(string(doc) + "#" + key)
}

// Document returns the document part of a segment ID.
func (id ID) Document() DocumentID {
	s := string(id)
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return DocumentID(s[:i])
	}
	return DocumentID(s)
}

// Key maps a segment ID onto the 32-bit partition keyspace (FNV-1a). A
// paragraph and its owning document hash independently, so a document's
// paragraphs spread across partitions while each individual segment has
// exactly one home. The partition ring assigns contiguous key ranges to
// partitions; Key is the only routing function, shared by routers and
// partition nodes so ownership decisions agree byte-for-byte.
func Key(id ID) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// KeyRange is an inclusive range [Lo, Hi] of partition keys: the slice of
// the keyspace a split target owns, and the /v1/part/prune body.
type KeyRange struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

// Contains reports whether partition key k falls in the range.
func (kr KeyRange) Contains(k uint32) bool { return k >= kr.Lo && k <= kr.Hi }

// Paragraph is one paragraph of a document.
type Paragraph struct {
	// ID is the paragraph's segment ID.
	ID ID

	// Doc is the owning document.
	Doc DocumentID

	// Index is the zero-based position of the paragraph within the document.
	Index int

	// Text is the paragraph's raw (un-normalised) text.
	Text string
}

// Split breaks document text into paragraphs. Paragraphs are separated by
// one or more blank lines; single line breaks within a paragraph are kept.
// Whitespace-only paragraphs are dropped.
func Split(doc DocumentID, text string) []Paragraph {
	var out []Paragraph
	for _, block := range splitBlocks(text) {
		out = append(out, Paragraph{
			ID:    ParSegmentID(doc, fmt.Sprintf("p%d", len(out))),
			Doc:   doc,
			Index: len(out),
			Text:  block,
		})
	}
	return out
}

// splitBlocks splits text on blank lines into trimmed, non-empty blocks.
func splitBlocks(text string) []string {
	var (
		blocks []string
		cur    []string
	)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		block := strings.TrimSpace(strings.Join(cur, "\n"))
		if block != "" {
			blocks = append(blocks, block)
		}
		cur = cur[:0]
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		cur = append(cur, line)
	}
	flush()
	return blocks
}

// Join reassembles paragraph texts into a document body with blank-line
// separators, the inverse of Split up to whitespace normalisation.
func Join(pars []Paragraph) string {
	texts := make([]string, len(pars))
	for i, p := range pars {
		texts[i] = p.Text
	}
	return strings.Join(texts, "\n\n")
}
