package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
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

// GenerateEbooksFunc generates the corpus and invokes fn with each book, in
// book order. Books are built concurrently, on min(GOMAXPROCS, Books)
// goroutines, each book from its own TextGen, but fn runs on the caller's
// goroutine, one call at a time. At most one finished book per builder
// waits for fn, so a caller that ingests and drops every book as it arrives
// peaks at about GOMAXPROCS+1 books (~MaxBytes each) of text instead of the
// whole corpus: that is how the 10M-hash scalability runs load a corpus far
// larger than memory. A book's paragraphs are substrings of one string, so
// a caller that keeps one paragraph keeps that book's whole text alive.
// Generation is deterministic: a given cfg yields byte-identical books
// whether consumed through GenerateEbooks or streamed here, whatever
// GOMAXPROCS is. An error from fn stops generation and is
// returned. GenerateEbooksFunc returns, or passes on a panic of fn, only
// after every builder has stopped.
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
	// text (and therefore identical fingerprint hashes). Builders only
	// read it.
	var popular []string
	if cfg.PopularPassages > 0 {
		pgen := NewTextGen(cfg.Seed+424242, 1500)
		popular = make([]string, cfg.PopularPassages)
		for i := range popular {
			popular[i] = pgen.Sentence(12, 18)
		}
	}
	// The sizes are the only draws the books share: make them all first,
	// in book order, before any builder starts.
	rng := rand.New(rand.NewSource(cfg.Seed))
	targets := make([]int, cfg.Books)
	for b := range targets {
		targets[b] = cfg.MinBytes
		if cfg.MaxBytes > cfg.MinBytes {
			targets[b] += rng.Intn(cfg.MaxBytes - cfg.MinBytes)
		}
	}

	// Builder w builds books w, w+workers, ... and hands each over on its
	// own unbuffered channel, so book b is read from out[b%workers] and no
	// builder runs more than one book ahead of fn.
	workers := min(runtime.GOMAXPROCS(0), cfg.Books)
	out := make([]chan Ebook, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	for w := range out {
		out[w] = make(chan Ebook)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte // one paragraph at a time, its passages appended in place
			for b := w; b < cfg.Books; b += workers {
				var book Ebook
				book, buf = buildBook(cfg, b, targets[b], popular, buf)
				select {
				case out[w] <- book:
				case <-done:
					return
				}
			}
		}()
	}
	for b := range cfg.Books {
		if err := fn(<-out[b%workers]); err != nil {
			return err
		}
	}
	return nil
}

// buildBook builds book b of at least target bytes from its own TextGen,
// in buf, and returns the book and buf for reuse. Each paragraph is built
// in buf and written to one string, of which the paragraphs are substrings.
func buildBook(cfg EbookConfig, b, target int, popular []string, buf []byte) (Ebook, []byte) {
	gen := NewTextGen(cfg.Seed+int64(b)*1009, 3000)
	book := Ebook{Title: fmt.Sprintf("Synthetic Classic %03d", b)}
	var text strings.Builder
	text.Grow(target + 4<<10) // the last paragraph overshoots target
	for size := 0; size < target; {
		buf = gen.appendParagraph(buf[:0], 4, 9)
		// Zipf-like injection: passage k every (k+1)*PopularEvery
		// paragraphs, so low-k passages recur in many paragraphs across
		// many books.
		idx := len(book.Paragraphs)
		for k, passage := range popular {
			if idx%((k+1)*cfg.PopularEvery) == (k+1)*7%cfg.PopularEvery {
				buf = append(append(buf, ' '), passage...)
			}
		}
		// The paragraph may point into a buffer text outgrows; the loop
		// after this one points it into the final string.
		text.Write(buf)
		book.Paragraphs = append(book.Paragraphs, text.String()[text.Len()-len(buf):])
		size += len(buf) + 2
	}
	all := text.String()
	for i, p := range book.Paragraphs {
		book.Paragraphs[i], all = all[:len(p)], all[len(p):]
	}
	return book, buf
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
