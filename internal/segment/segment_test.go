package segment

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitBasic(t *testing.T) {
	text := "First paragraph line one.\nLine two.\n\nSecond paragraph.\n\n\n\nThird."
	pars := Split("doc1", text)
	if len(pars) != 3 {
		t.Fatalf("len=%d, want 3", len(pars))
	}
	if pars[0].Text != "First paragraph line one.\nLine two." {
		t.Errorf("pars[0].Text=%q", pars[0].Text)
	}
	if pars[1].Text != "Second paragraph." {
		t.Errorf("pars[1].Text=%q", pars[1].Text)
	}
	if pars[2].Text != "Third." {
		t.Errorf("pars[2].Text=%q", pars[2].Text)
	}
	for i, p := range pars {
		if p.Index != i {
			t.Errorf("pars[%d].Index=%d", i, p.Index)
		}
		if p.Doc != "doc1" {
			t.Errorf("pars[%d].Doc=%q", i, p.Doc)
		}
	}
}

func TestSplitEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		give string
		want int
	}{
		{name: "empty", give: "", want: 0},
		{name: "only blank lines", give: "\n\n \n\t\n", want: 0},
		{name: "single line", give: "hello", want: 1},
		{name: "trailing newline", give: "hello\n", want: 1},
		{name: "leading blanks", give: "\n\nhello", want: 1},
		{name: "windows newlines treated as content", give: "a\n\nb", want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Split("d", tt.give); len(got) != tt.want {
				t.Errorf("len=%d, want %d", len(got), tt.want)
			}
		})
	}
}

func TestSegmentIDs(t *testing.T) {
	doc := DocumentID("wiki/guidelines")
	docID := DocSegmentID(doc)
	parID := ParSegmentID(doc, "p3")
	if docID != "wiki/guidelines" || parID != "wiki/guidelines#p3" {
		t.Errorf("document ID %q, paragraph ID %q", docID, parID)
	}
	if parID.Document() != doc {
		t.Errorf("parID.Document()=%q, want %q", parID.Document(), doc)
	}
	if docID.Document() != doc {
		t.Errorf("docID.Document()=%q, want %q", docID.Document(), doc)
	}
}

func TestGranularityString(t *testing.T) {
	if GranularityParagraph.String() != "paragraph" {
		t.Error("paragraph string")
	}
	if GranularityDocument.String() != "document" {
		t.Error("document string")
	}
	if Granularity(99).String() != "granularity(99)" {
		t.Error("unknown granularity string")
	}
}

func TestJoinRoundTrip(t *testing.T) {
	text := "one one one.\n\ntwo two.\n\nthree."
	pars := Split("d", text)
	if got := Join(pars); got != text {
		t.Errorf("Join(Split(x))=%q, want %q", got, text)
	}
}

// Property: Split then Join then Split is a fixed point.
func TestQuickSplitJoinFixedPoint(t *testing.T) {
	f := func(lines []string) bool {
		text := strings.Join(lines, "\n")
		once := Split("d", text)
		again := Split("d", Join(once))
		if len(once) != len(again) {
			return false
		}
		for i := range once {
			if once[i].Text != again[i].Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: paragraph IDs within a document are unique.
func TestQuickUniqueIDs(t *testing.T) {
	f := func(blob string) bool {
		pars := Split("doc", blob)
		seen := make(map[ID]bool, len(pars))
		for _, p := range pars {
			if seen[p.ID] {
				return false
			}
			seen[p.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
