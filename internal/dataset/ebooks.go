package dataset

import (
	"fmt"
	"math/rand"
	"strings"
)

// Ebook is one synthetic Project Gutenberg-style book used by the
// performance experiments (§6.2): the paper loads 180 e-books (300 KB to
// 5.5 MB, 90 MB total, ~10 M distinct hashes) into the fingerprint
// database.
type Ebook struct {
	// Title names the book.
	Title string

	// Paragraphs is the full text, paragraph by paragraph.
	Paragraphs []string
}

// SizeBytes returns the book's total text size.
func (e Ebook) SizeBytes() int {
	n := 0
	for _, p := range e.Paragraphs {
		n += len(p) + 2
	}
	return n
}

// EbookConfig controls e-book generation.
type EbookConfig struct {
	// Seed drives all randomness.
	Seed int64

	// Books is the number of books (paper: 180).
	Books int

	// MinBytes and MaxBytes bound the book sizes (paper: 300 KB–5.5 MB).
	MinBytes int
	MaxBytes int

	// PopularPassages injects this many shared passages across books with
	// a Zipf-like frequency profile (passage 0 most frequent). §6.2 notes
	// that "performance is determined primarily by how many popular text
	// passages appear in multiple different paragraphs" — this knob
	// reproduces that load. Zero disables injection.
	PopularPassages int

	// PopularEvery is the base injection period in paragraphs (default
	// 40): passage k appears every (k+1)*PopularEvery paragraphs.
	PopularEvery int
}

// GenerateEbooks builds the book corpus. Books share one large vocabulary
// (like English prose), so popular phrases occasionally collide across
// books — the realistic overlap that drives Figure 12's W1/W3 latencies.
//
// The whole corpus is materialised at once; corpus-scale callers (10M+
// hashes) should stream it book by book with GenerateEbooksFunc instead.
func GenerateEbooks(cfg EbookConfig) []Ebook {
	books := make([]Ebook, 0, max(cfg.Books, 1))
	// The only error source is fn, and this fn never fails.
	_ = GenerateEbooksFunc(cfg, func(book Ebook) error {
		books = append(books, book)
		return nil
	})
	return books
}

// GenerateEbooksFunc generates the corpus one book at a time, invoking fn
// with each completed book in generation order. The caller may ingest and
// drop every book as it arrives, so loading a corpus far larger than memory
// (the 10M-hash scalability runs) peaks at one book (~MaxBytes) of text
// instead of the whole corpus. Generation is deterministic: a given cfg
// yields byte-identical books whether consumed through GenerateEbooks or
// streamed here. An error from fn stops generation and is returned.
func GenerateEbooksFunc(cfg EbookConfig, fn func(book Ebook) error) error {
	if cfg.Books < 1 {
		cfg.Books = 1
	}
	if cfg.MinBytes < 1<<10 {
		cfg.MinBytes = 1 << 10
	}
	if cfg.MaxBytes < cfg.MinBytes {
		cfg.MaxBytes = cfg.MinBytes
	}
	if cfg.PopularEvery <= 0 {
		cfg.PopularEvery = 40
	}
	// Shared passage pool, generated once so every book embeds identical
	// text (and therefore identical fingerprint hashes).
	var popular []string
	if cfg.PopularPassages > 0 {
		pgen := NewTextGen(cfg.Seed+424242, 1500)
		popular = make([]string, cfg.PopularPassages)
		for i := range popular {
			popular[i] = pgen.Sentence(12, 18)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for b := 0; b < cfg.Books; b++ {
		gen := NewTextGen(cfg.Seed+int64(b)*1009, 3000)
		target := cfg.MinBytes
		if cfg.MaxBytes > cfg.MinBytes {
			target += rng.Intn(cfg.MaxBytes - cfg.MinBytes)
		}
		book := Ebook{Title: fmt.Sprintf("Synthetic Classic %03d", b)}
		size := 0
		for size < target {
			p := gen.Paragraph(4, 9)
			// Zipf-like injection: passage k every (k+1)*PopularEvery
			// paragraphs, so low-k passages recur in many paragraphs
			// across many books.
			idx := len(book.Paragraphs)
			for k, passage := range popular {
				if idx%((k+1)*cfg.PopularEvery) == (k+1)*7%cfg.PopularEvery {
					p = p + " " + passage
				}
			}
			book.Paragraphs = append(book.Paragraphs, p)
			size += len(p) + 2
		}
		if err := fn(book); err != nil {
			return err
		}
	}
	return nil
}

// Page returns roughly one page (~2 KB) of a book starting at paragraph
// offset, as a single string — the unit the Figure 12 workflows paste.
func (e Ebook) Page(offset int) string {
	var sb strings.Builder
	for i := offset; i < len(e.Paragraphs) && sb.Len() < 2048; i++ {
		sb.WriteString(e.Paragraphs[i])
		sb.WriteString("\n\n")
	}
	return strings.TrimSpace(sb.String())
}

// TotalSizeBytes sums the corpus size.
func TotalSizeBytes(books []Ebook) int {
	n := 0
	for _, b := range books {
		n += b.SizeBytes()
	}
	return n
}
