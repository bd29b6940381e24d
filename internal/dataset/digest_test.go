package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"strings"
	"testing"
)

// digest accumulates length-prefixed strings into one sha256, so two
// outputs that split the same bytes differently still digest apart.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(ss ...string) {
	var n [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		d.h.Write(n[:])
		d.h.Write([]byte(s))
	}
}

func (d *digest) int(v int) { d.add(string(binary.AppendVarint(nil, int64(v)))) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func digestBooks(d *digest, books []Ebook) {
	d.int(len(books))
	for _, b := range books {
		d.add(b.Title)
		d.int(len(b.Paragraphs))
		d.add(b.Paragraphs...)
	}
}

// textGenScript calls every TextGen method from one seed, feeding each
// edit its own earlier output, and digests every result in call order.
func textGenScript(seed int64) string {
	d := newDigest()
	g := NewTextGen(seed, 250)
	for i := 0; i < 40; i++ {
		d.add(g.Word())
	}
	d.add(g.Sentence(1, 1), g.Sentence(3, 9), g.Sentence(7, 2), g.Sentence(16, 16))
	p := g.Paragraph(3, 7)
	d.add(p, g.Paragraph(1, 1), g.Paragraph(0, 0), g.Paragraph(5, 2))
	for i := 0; i < 60; i++ {
		switch i % 5 {
		case 0:
			p = g.LightEdit(p, 0.1)
		case 1:
			p = g.AppendSentence(p)
		case 2:
			p = g.DropSentence(p)
		case 3:
			p = g.LightEdit(p, 0)
		case 4:
			p = g.Rephrase(p)
		}
		d.add(p)
	}
	d.add(g.Rephrase("no full stop here"), g.Rephrase(""), g.LightEdit("  one\ttwo \n three ", 2))
	d.add(g.DropSentence("Only one."), g.DropSentence("  One.  Two. . Three  "), g.AppendSentence(""))
	d.add(g.Sentence(8, 16))
	return d.sum()
}

// generatorDigests pins every generator's output bytes. Each seed must
// give the same text whatever the implementation: the paper experiments,
// the tier-1 goldens and the benchmark's oracle all read it, so a rewrite
// must keep the RNG draw order, each Intn argument and every byte.
var generatorDigests = []struct {
	name string
	run  func() string
	want string
}{
	{"ebooks-bench-shape", func() string {
		d := newDigest()
		for seed := int64(1); seed <= 2; seed++ {
			digestBooks(d, GenerateEbooks(EbookConfig{Seed: seed, Books: 2, MinBytes: 1 << 20, MaxBytes: 1 << 20}))
		}
		return d.sum()
	}, "220c28fc75353a1b80473326d92a7d96b627687f96c6c22f888222e4ec25c6a3"},
	{"ebooks-popular", func() string {
		d := newDigest()
		for seed := int64(1); seed <= 2; seed++ {
			digestBooks(d, GenerateEbooks(EbookConfig{Seed: seed, Books: 3, MinBytes: 40 << 10, MaxBytes: 200 << 10, PopularPassages: 3}))
		}
		return d.sum()
	}, "4bd2e89c0b3f73d0588e4ff02e8bfb97fcfdaed1f4c28ca3fe43f6e49ec119eb"},
	// More books than a machine has cores, of uneven sizes, so books
	// finish out of order when they are built concurrently.
	{"ebooks-uneven", func() string {
		d := newDigest()
		for seed := int64(1); seed <= 2; seed++ {
			digestBooks(d, GenerateEbooks(EbookConfig{Seed: seed, Books: 7, MinBytes: 8 << 10, MaxBytes: 64 << 10, PopularPassages: 3}))
		}
		return d.sum()
	}, "7f27a5677254ccc7000f1b5fcd8399daf3a817dd197d87a5fd82ec6a9f21b0d4"},
	{"revisions-default", func() string {
		d := newDigest()
		for _, a := range GenerateRevisionCorpus(DefaultRevisionCorpusConfig()) {
			d.add(a.Title)
			d.int(len(a.Revisions))
			for _, rev := range a.Revisions {
				d.int(len(rev))
				d.add(rev...)
			}
		}
		return d.sum()
	}, "c8c28b4746bea8f663dec5d10e162cb7432ed15316ada6a65d34bb264696aa48"},
	{"manuals-default", func() string {
		d := newDigest()
		for _, c := range GenerateManuals(1) {
			d.add(c.Name)
			for _, v := range c.Versions {
				d.add(v.Label)
				d.int(len(v.Paragraphs))
				d.add(v.Paragraphs...)
				for _, k := range v.BaseEdits {
					d.int(int(k))
				}
			}
		}
		return d.sum()
	}, "7f00c80a4f7799f43389fd3df5314d3d094f5acd2b25948f07493132a3f7413d"},
	{"textgen-script", func() string {
		d := newDigest()
		for seed := int64(1); seed <= 5; seed++ {
			d.add(textGenScript(seed))
		}
		return d.sum()
	}, "4e2b407b7021bed4199c54df128ff53cb4270aba4e6444a7bfd44b96559abbda"},
}

func TestGeneratorDigests(t *testing.T) {
	for _, c := range generatorDigests {
		if got := c.run(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGenerateEbooksDigestsAnyGOMAXPROCS builds the pinned e-book corpora
// with one builder goroutine and with four: the books, and the order fn
// sees them in, must not depend on how many are built at once.
func TestGenerateEbooksDigestsAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range generatorDigests {
			if !strings.HasPrefix(c.name, "ebooks-") {
				continue
			}
			if got := c.run(); got != c.want {
				t.Errorf("GOMAXPROCS=%d %s: digest %s, want %s", procs, c.name, got, c.want)
			}
		}
	}
}
