package normalize

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalizePaperExample(t *testing.T) {
	got := Normalize("Hello World!")
	if got.Text != "helloworld" {
		t.Errorf("Text=%q, want %q", got.Text, "helloworld")
	}
}

func TestNormalizeTable(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string
	}{
		{name: "empty", give: "", want: ""},
		{name: "only punctuation", give: "!?.,;: \t\n", want: ""},
		{name: "digits kept", give: "MySQL 5.1!", want: "mysql51"},
		{name: "case folded", give: "ABCdef", want: "abcdef"},
		{name: "unicode letters kept", give: "Città è bella", want: "cittàèbella"},
		{name: "newlines stripped", give: "a\nb\r\nc", want: "abc"},
		{name: "interior spaces", give: "the  quick   fox", want: "thequickfox"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Normalize(tt.give); got.Text != tt.want {
				t.Errorf("Normalize(%q).Text=%q, want %q", tt.give, got.Text, tt.want)
			}
		})
	}
}

func TestOffsetsPointAtOriginRunes(t *testing.T) {
	orig := "He said: «Bonjour, Monde»!"
	r := Normalize(orig)
	if len(r.Offsets) != len(r.Text) {
		t.Fatalf("len(Offsets)=%d, want %d", len(r.Offsets), len(r.Text))
	}
	// Every offset must point at a letter or digit in the original.
	for i, off := range r.Offsets {
		c := []rune(orig[off:])[0]
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			t.Errorf("Offsets[%d]=%d points at %q, not a letter/digit", i, off, c)
		}
	}
	// Offsets must be non-decreasing.
	for i := 1; i < len(r.Offsets); i++ {
		if r.Offsets[i] < r.Offsets[i-1] {
			t.Errorf("Offsets not monotone at %d: %d < %d", i, r.Offsets[i], r.Offsets[i-1])
		}
	}
}

func TestOrigRange(t *testing.T) {
	orig := "Hello, World!"
	r := Normalize(orig) // "helloworld"
	start, end := r.OrigRange(5, 10)
	if got := orig[start:end]; got != "World" {
		t.Errorf("OrigRange(5,10) -> %q, want %q", got, "World")
	}
	start, end = r.OrigRange(0, 5)
	if got := orig[start:end]; got != "Hello" {
		t.Errorf("OrigRange(0,5) -> %q, want %q", got, "Hello")
	}
}

func TestOrigRangeMultibyte(t *testing.T) {
	orig := "père Noël"
	r := Normalize(orig) // "pèrenoël"
	start, end := r.OrigRange(0, len(r.Text))
	if start != 0 {
		t.Errorf("start=%d, want 0", start)
	}
	if got := orig[start:end]; !strings.HasSuffix(got, "Noël") {
		t.Errorf("OrigRange full -> %q, want suffix %q", got, "Noël")
	}
}

func TestOrigRangeInvalid(t *testing.T) {
	r := Normalize("abc")
	for _, tt := range []struct{ start, end int }{
		{-1, 2}, {0, 4}, {2, 2}, {3, 1},
	} {
		if s, e := r.OrigRange(tt.start, tt.end); s != 0 || e != 0 {
			t.Errorf("OrigRange(%d,%d)=(%d,%d), want (0,0)", tt.start, tt.end, s, e)
		}
	}
}

// TestEquivalent: strings that differ only in case, whitespace and
// punctuation normalise to the same text.
func TestEquivalent(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"Hello World!", "helloworld", true},
		{"the quick fox", "THE QUICK FOX.", true},
		{"abc", "abd", false},
		{"", "  ...  ", true},
	}
	for _, tt := range tests {
		if got := Normalize(tt.a).Text == Normalize(tt.b).Text; got != tt.want {
			t.Errorf("%q and %q normalise alike: %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: normalisation is idempotent — normalising the normalised text is
// a no-op.
func TestQuickIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s).Text
		twice := Normalize(once).Text
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: case and whitespace perturbations never change the normalised
// text.
func TestQuickCaseWhitespaceInvariant(t *testing.T) {
	f := func(s string) bool {
		perturbed := strings.ToUpper(strings.ReplaceAll(s, "a", " a "))
		base := strings.ToUpper(s)
		return Normalize(perturbed).Text == Normalize(base).Text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNormalize(b *testing.B) {
	s := strings.Repeat("The Quick Brown Fox, jumps over the lazy dog! ", 100)
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Normalize(s)
	}
}
