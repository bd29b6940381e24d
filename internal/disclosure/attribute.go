package disclosure

import (
	"sort"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
)

// Span is a half-open byte range [Start, End) of an observed text.
type Span struct {
	Start int
	End   int
}

// Len returns the span length in bytes.
func (s Span) Len() int { return s.End - s.Start }

// AttributeParagraph returns the passages of text that disclose src at
// paragraph granularity — §4.1: "Provided that the location of the
// corresponding source text for each hash in the fingerprint is also
// stored, it becomes possible to attribute accurately which text segment
// passages caused information disclosure." The spans are the n-gram ranges
// of text whose hashes belong to src's authoritative fingerprint, merged
// where they overlap or touch.
func (t *Tracker) AttributeParagraph(text string, src segment.ID) ([]Span, error) {
	return t.attribute(text, src, t.pars)
}

// AttributeDocument is AttributeParagraph at document granularity.
func (t *Tracker) AttributeDocument(text string, src segment.ID) ([]Span, error) {
	return t.attribute(text, src, t.docs)
}

func (t *Tracker) attribute(text string, src segment.ID, db *index.DB) ([]Span, error) {
	positions, err := fingerprint.Positions(text, t.params.Fingerprint)
	if err != nil {
		return nil, err
	}
	srcFP, ok := db.Fingerprint(src)
	if !ok {
		return nil, nil
	}
	var spans []Span
	for _, pos := range positions {
		if !srcFP.Contains(pos.Hash) {
			continue
		}
		if !t.params.DisableAuthoritative {
			holder, ok := db.OldestHolder(pos.Hash)
			if !ok || holder != src {
				continue
			}
		}
		spans = append(spans, Span{Start: pos.Start, End: pos.End})
	}
	return mergeSpans(spans), nil
}

// mergeSpans sorts and coalesces overlapping or adjacent spans.
func mergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End < spans[j].End
	})
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}
