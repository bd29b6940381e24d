package fingerprint

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randText builds a text with letters, digits, punctuation and multi-byte
// runes so the scratch path exercises normalisation, rolling hashes and
// winnowing together.
func randText(rng *rand.Rand, n int) string {
	alphabet := []rune("abcdefghij KLMNO 0123456789 .,!? ÄöüÉ 中文字")
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// Property: ComputeShared selects exactly the hash set of Compute, for any
// text and several configurations.
func TestComputeSharedMatchesCompute(t *testing.T) {
	var sc Scratch
	cfgs := []Config{DefaultConfig(), {NGram: 3, Window: 4}, {NGram: 1, Window: 1}}
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randText(rng, int(n)%400)
		for _, cfg := range cfgs {
			want, err := Compute(text, cfg)
			if err != nil {
				return false
			}
			got, err := sc.ComputeShared(text, cfg)
			if err != nil {
				return false
			}
			if !slices.Equal(got.Hashes(), want.Hashes()) || got.Digest() != want.Digest() {
				t.Logf("cfg=%+v text=%q got=%v want=%v", cfg, text, got.Hashes(), want.Hashes())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// AppendHashes must leave an existing prefix untouched and reuse capacity.
func TestAppendHashesPreservesPrefix(t *testing.T) {
	var sc Scratch
	cfg := Config{NGram: 3, Window: 4}
	text := "the quick brown fox jumps over the lazy dog"
	want, err := Compute(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []uint32{99, 1, 42}
	buf := make([]uint32, 0, 128)
	buf = append(buf, prefix...)
	got, err := sc.AppendHashes(buf, text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Error("AppendHashes reallocated despite sufficient capacity")
	}
	for i, h := range prefix {
		if got[i] != h {
			t.Fatalf("prefix clobbered: %v", got[:len(prefix)])
		}
	}
	tail := got[len(prefix):]
	if len(tail) != want.Len() {
		t.Fatalf("appended %d hashes, want %d", len(tail), want.Len())
	}
	for i, h := range want.Hashes() {
		if tail[i] != h {
			t.Fatalf("tail[%d]=%d, want %d", i, tail[i], h)
		}
	}
}

// TestComputeSharedZeroAlloc pins the tentpole property: once the scratch
// buffers are warm, fingerprinting allocates nothing.
func TestComputeSharedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var sc Scratch
	cfg := DefaultConfig()
	text := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 20)
	// Warm-up: grow every buffer to its steady-state size.
	if _, err := sc.ComputeShared(text, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fp, err := sc.ComputeShared(text, cfg)
		if err != nil || fp.Empty() {
			t.Fatal("unexpected compute failure")
		}
	})
	if allocs != 0 {
		t.Errorf("ComputeShared allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// Clone must produce an owned fingerprint that survives scratch reuse.
func TestCloneDetachesFromScratch(t *testing.T) {
	var sc Scratch
	cfg := Config{NGram: 3, Window: 4}
	shared, err := sc.ComputeShared("a first text with enough content to fingerprint", cfg)
	if err != nil {
		t.Fatal(err)
	}
	owned := shared.Clone()
	wantDigest := owned.Digest()
	// Clobber the scratch with a different text.
	if _, err := sc.ComputeShared("something completely different goes here now!", cfg); err != nil {
		t.Fatal(err)
	}
	if owned.Digest() != wantDigest {
		t.Error("Clone still aliases the scratch: digest changed after scratch reuse")
	}
}

func BenchmarkCompute(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 20)
	cfg := DefaultConfig()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(text, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeShared(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 20)
	cfg := DefaultConfig()
	var sc Scratch
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.ComputeShared(text, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeSharedSizes(b *testing.B) {
	cfg := DefaultConfig()
	for _, words := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			text := strings.Repeat("lorem ipsum dolor sit amet consectetur ", words/6+1)
			var sc Scratch
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.ComputeShared(text, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
