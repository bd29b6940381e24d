package segment

import (
	"sort"
	"testing"
	"testing/quick"
)

// Property: a sorted ID list front-coded entry by entry decodes to itself,
// each entry consuming exactly the bytes it was given.
func TestQuickFrontCodedRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		sort.Strings(raw)
		var buf []byte
		var prev ID
		for _, s := range raw {
			buf = AppendFrontCoded(buf, prev, ID(s))
			prev = ID(s)
		}
		var id []byte
		for _, s := range raw {
			var n int
			if id, n = ReadFrontCoded(buf, id); n == 0 || string(id) != s {
				return false
			}
			buf = buf[n:]
		}
		return len(buf) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrontCodedSharesPrefixes(t *testing.T) {
	buf := AppendFrontCoded(nil, "docs/e00-paste#p0", "docs/e00-paste#p1")
	if want := []byte{16, 1, '1'}; string(buf) != string(want) {
		t.Errorf("encoded %v, want %v", buf, want)
	}
}

// A malformed entry is refused, not read past the data or the previous ID.
func TestReadFrontCodedRejectsMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":                   {},
		"no length":               {0},
		"shares more than exists": {4, 0},
		"rest longer than data":   {0, 3, 'a', 'b'},
		"overlong shared varint":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
		"rest length near 2^64":   {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"shared length near 2^64": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
		"truncated rest varint":   {0, 0x80},
		"truncated shared varint": {0x80},
		"rest one byte too short": {3, 2, 'x'},
	} {
		if id, n := ReadFrontCoded(data, []byte("abc")); n != 0 || string(id) != "abc" {
			t.Errorf("%s: got (%q, %d), want the entry refused and prev returned", name, id, n)
		}
	}
	// The control: sharing exactly what the previous entry has is fine.
	if id, n := ReadFrontCoded([]byte{3, 1, 'd'}, []byte("abc")); n != 3 || string(id) != "abcd" {
		t.Errorf("got (%q, %d), want (abcd, 3)", id, n)
	}
}
