package rollhash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadWindow(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
}

func TestRollMatchesSum(t *testing.T) {
	tests := []struct {
		name string
		data string
		n    int
	}{
		{name: "exact window", data: "hellow", n: 6},
		{name: "longer input", data: "helloworld", n: 6},
		{name: "window one", data: "abc", n: 1},
		{name: "binary bytes", data: "\x00\xff\x10\x20\x30", n: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := New(tt.n)
			if err != nil {
				t.Fatalf("New(%d): %v", tt.n, err)
			}
			data := []byte(tt.data)
			for i, b := range data {
				got, ok := h.Roll(b)
				wantOK := i >= tt.n-1
				if ok != wantOK {
					t.Fatalf("Roll #%d: ok=%v, want %v", i, ok, wantOK)
				}
				if !ok {
					continue
				}
				want := Sum(data[i-tt.n+1 : i+1])
				if got != want {
					t.Errorf("Roll #%d: hash=%#x, want %#x", i, got, want)
				}
			}
		})
	}
}

func TestRollIncompleteWindow(t *testing.T) {
	h, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if v, ok := h.Roll('a'); ok || v != 0 {
			t.Fatalf("Roll #%d before window full: got (%d,%v), want (0,false)", i, v, ok)
		}
	}
	if _, ok := h.Roll('a'); !ok {
		t.Fatal("Roll #10: window full, want ok=true")
	}
}

func TestReset(t *testing.T) {
	h, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(s string) (last uint32) {
		for _, b := range []byte(s) {
			if v, ok := h.Roll(b); ok {
				last = v
			}
		}
		return last
	}
	first := feed("abcdef")
	h.Reset()
	second := feed("abcdef")
	if first != second {
		t.Errorf("hash after Reset differs: %#x vs %#x", first, second)
	}
}

func TestNGrams(t *testing.T) {
	hashes, err := AppendNGrams(nil, []byte("helloworld"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 5 {
		t.Fatalf("len(hashes)=%d, want 5", len(hashes))
	}
	want := []uint32{
		Sum([]byte("hellow")),
		Sum([]byte("ellowo")),
		Sum([]byte("llowor")),
		Sum([]byte("loworl")),
		Sum([]byte("oworld")),
	}
	for i, w := range want {
		if hashes[i] != w {
			t.Errorf("hashes[%d]=%#x, want %#x", i, hashes[i], w)
		}
	}
}

func TestNGramsShortInput(t *testing.T) {
	hashes, err := AppendNGrams(nil, []byte("hi"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if hashes != nil {
		t.Errorf("AppendNGrams on short input: got %v, want nil", hashes)
	}
}

func TestNGramsBadWindow(t *testing.T) {
	if _, err := AppendNGrams(nil, []byte("hi"), 0); err == nil {
		t.Error("AppendNGrams(n=0): want error")
	}
}

// Property: the rolling hash of any window equals the direct polynomial sum
// of that window, for random inputs and window sizes.
func TestQuickRollEquivalence(t *testing.T) {
	f := func(data []byte, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		if len(data) < n {
			return true
		}
		got, err := AppendNGrams(nil, data, n)
		if err != nil {
			return false
		}
		for i := range got {
			if got[i] != Sum(data[i:i+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: equal windows hash equally regardless of surrounding context
// (shift invariance), the key property winnowing relies on.
func TestQuickShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 8
	window := make([]byte, n)
	for trial := 0; trial < 200; trial++ {
		rng.Read(window)
		prefix := make([]byte, rng.Intn(32))
		rng.Read(prefix)
		data := append(append([]byte{}, prefix...), window...)
		hashes, err := AppendNGrams(nil, data, n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hashes[len(hashes)-1], Sum(window); got != want {
			t.Fatalf("trial %d: embedded window hash %#x, want %#x", trial, got, want)
		}
	}
}

func BenchmarkRoll(b *testing.B) {
	h, err := New(15)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for _, c := range data {
			h.Roll(c)
		}
	}
}
