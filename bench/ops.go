package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/segment"
)

// One generator feeds all four workloads; everything below is a pure
// function of the seed, so the same -seed gives byte-identical inputs.

const (
	// parBytes is the target paragraph size of both the corpus and the
	// editors' paragraphs (the paper's paragraphs are a few hundred
	// characters; bfload uses the same figure).
	parBytes = 600

	// editStride is how many characters one edit op appends — bfload's
	// keystroke-burst stride.
	editStride = 20

	// editors is the number of logical editors E of the edit stream. Editor
	// e is pinned to client e mod C, so one segment's observes never race
	// and every verdict is a function of the seed alone.
	editors = 64

	// Services of testdata/policy.json: the corpus lives in the two
	// labelled services, editors type into docs, and notes is the
	// unprivileged destination every disclosure check must refuse.
	svcDocs  = "docs"
	svcNotes = "notes"
)

var corpusServices = [2]string{"wiki", "itool"}

// corpusPar is one corpus paragraph and the service that owns it.
type corpusPar struct {
	seg     segment.ID
	service string
	text    string
}

// genCorpus generates e-book text and splits it into ~parBytes paragraphs
// until at least targetBytes of paragraph text exist. Books alternate
// between the two labelled services.
func genCorpus(seed int64, targetBytes int) (pars []corpusPar, textBytes int) {
	const bookBytes = 1 << 20
	cfg := dataset.EbookConfig{
		Seed:     seed,
		Books:    targetBytes/bookBytes + 1,
		MinBytes: bookBytes,
		MaxBytes: bookBytes,
	}
	pars = make([]corpusPar, 0, targetBytes/(parBytes-100)+16)
	b := 0
	// The callback never fails, and it is the only error source.
	_ = dataset.GenerateEbooksFunc(cfg, func(book dataset.Ebook) error {
		service := corpusServices[b%len(corpusServices)]
		n := 0
		for _, p := range book.Paragraphs {
			for _, chunk := range splitPar(p, parBytes) {
				if textBytes >= targetBytes {
					return nil
				}
				pars = append(pars, corpusPar{
					seg:     segment.ID(fmt.Sprintf("%s/b%03d#p%d", service, b, n)),
					service: service,
					text:    chunk,
				})
				textBytes += len(chunk)
				n++
			}
		}
		b++
		return nil
	})
	return pars, textBytes
}

// splitPar packs whole sentences of p into chunks of at most limit bytes
// (a single longer sentence becomes its own chunk). A short tail is merged
// into the previous chunk so no paragraph is too small to fingerprint.
func splitPar(p string, limit int) []string {
	var chunks []string
	start := 0 // start of the chunk being built
	for pos := 0; pos < len(p); {
		end := len(p) // end (exclusive) of the sentence starting at pos
		if i := strings.Index(p[pos:], ". "); i >= 0 {
			end = pos + i + 1
		}
		if end-start > limit && pos > start {
			chunks = append(chunks, p[start:pos-1]) // pos-1 drops the joining space
			start = pos
		}
		pos = end + 1
	}
	chunks = append(chunks, p[start:])
	if n := len(chunks); n >= 2 && len(chunks[n-1]) < limit/3 {
		chunks[n-2] = chunks[n-2] + " " + chunks[n-1]
		chunks = chunks[:n-1]
	}
	return chunks
}

type opKind uint8

const (
	opObserve opKind = iota // write: record the text as the segment's current content
	opCheck                 // read: may this text be released to service?
	opUpload                // read: may the tracked segment be released to service? (recovery probes only)
)

// verdict is the part of a policy verdict the oracle compares: the decision
// and the violating tags (sorted, comma-joined).
type verdict struct {
	decision  string
	violating string
}

// op is one request of a workload's stream. For an observe, service is the
// service the segment lives in; for a check it is the destination.
type op struct {
	kind    opKind
	editor  int32
	src     int32 // corpus paragraph the text derives from, -1 for novel text
	seg     segment.ID
	service string
	text    string
	want    *verdict // oracle expectation; nil when this editor is not verified
}

// Paragraph kinds of the edit stream, the paper's three workflows.
const (
	kindW1 = iota // retype a corpus paragraph: discloses it
	kindW2        // novel text: discloses nothing
	kindW3        // light edit of the editor's own earlier paragraph
)

type editorState struct {
	target string // full text of the paragraph being typed
	typed  int    // characters typed so far
	src    int32
	par    int // paragraphs started
	seg    segment.ID
	done   []donePar // finished paragraphs, W3 material
	checks int
}

type donePar struct {
	text string
	src  int32
}

// genEditStream generates n ops of the keystroke workload: op i belongs to
// editor i mod editors; with probability observeShare it types editStride
// more characters of the editor's current paragraph and observes the text so
// far, otherwise it checks the text so far against a destination — notes
// (must be refused while the text discloses the corpus) and the source
// paragraph's own service (must be allowed) in turn. A finished paragraph is
// followed by a W1/W2/W3 paragraph at 30/30/40.
func genEditStream(seed int64, corpus []corpusPar, n int, observeShare float64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0e17))
	novel := dataset.NewTextGen(seed+7919, 3000)
	eds := make([]editorState, editors)
	ops := make([]op, 0, n)

	nextPar := func(e int, st *editorState) {
		kind := kindW2
		switch r := rng.Intn(10); {
		case r < 3:
			kind = kindW1
		case r < 6:
			kind = kindW2
		default:
			kind = kindW3
			if len(st.done) == 0 {
				kind = kindW2
			}
		}
		switch kind {
		case kindW1:
			st.src = int32(rng.Intn(len(corpus)))
			st.target = corpus[st.src].text
		case kindW2:
			st.src = -1
			st.target = splitPar(novel.Paragraph(6, 9), parBytes)[0]
		case kindW3:
			prev := st.done[rng.Intn(len(st.done))]
			st.src = prev.src
			st.target = novel.LightEdit(prev.text, 0.05)
		}
		st.typed = 0
		st.seg = segment.ID(fmt.Sprintf("docs/e%02d#p%d", e, st.par))
		st.par++
	}

	for i := 0; i < n; i++ {
		e := i % editors
		st := &eds[e]
		if st.target == "" || st.typed >= len(st.target) {
			if st.target != "" {
				st.done = append(st.done, donePar{text: st.target, src: st.src})
			}
			nextPar(e, st)
		}
		if st.typed == 0 || rng.Float64() < observeShare {
			st.typed += editStride
			if st.typed > len(st.target) {
				st.typed = len(st.target)
			}
			ops = append(ops, op{kind: opObserve, editor: int32(e), src: st.src,
				seg: st.seg, service: svcDocs, text: st.target[:st.typed]})
			continue
		}
		ops = append(ops, op{kind: opCheck, editor: int32(e), src: st.src,
			service: checkDest(corpus, st.src, st.checks), text: st.target[:st.typed]})
		st.checks++
	}
	return ops
}

// genPasteStream generates n ops of the Figure 13 workload: a paste observes
// a whole corpus paragraph as a brand-new docs segment (so every paste
// misses the decision cache and runs the full disclosure algorithm), a check
// asks whether a corpus paragraph may be released to a destination.
func genPasteStream(seed int64, corpus []corpusPar, n int, pasteShare float64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x9a57e))
	ops := make([]op, 0, n)
	pastes := make([]int, editors)
	checks := make([]int, editors)
	for i := 0; i < n; i++ {
		e := i % editors
		src := int32(rng.Intn(len(corpus)))
		if rng.Float64() < pasteShare {
			ops = append(ops, op{kind: opObserve, editor: int32(e), src: src,
				seg:     segment.ID(fmt.Sprintf("docs/e%02d-paste#p%d", e, pastes[e])),
				service: svcDocs, text: corpus[src].text})
			pastes[e]++
			continue
		}
		ops = append(ops, op{kind: opCheck, editor: int32(e), src: src,
			service: checkDest(corpus, src, checks[e]), text: corpus[src].text})
		checks[e]++
	}
	return ops
}

// checkDest alternates a check's destination between notes and the service
// that owns the disclosed source (docs for novel text).
func checkDest(corpus []corpusPar, src int32, nth int) string {
	if nth%2 == 0 {
		return svcNotes
	}
	if src < 0 {
		return svcDocs
	}
	return corpus[src].service
}

// splitByClient deals ops to clients: editor e's ops all go to client
// e mod clients, in stream order. idx[c][k] is the stream position of
// client c's k-th op.
func splitByClient(ops []op, clients int) (idx [][]int) {
	idx = make([][]int, clients)
	for c := range idx {
		idx[c] = make([]int, 0, len(ops)/clients+editors)
	}
	for i := range ops {
		c := int(ops[i].editor) % clients
		idx[c] = append(idx[c], i)
	}
	return idx
}
