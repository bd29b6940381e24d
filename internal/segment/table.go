package segment

import (
	"sync"
	"sync/atomic"
)

// maxRefs bounds the refs a Table issues, so an owner may tag a stored ref
// with the top bit and keep ^uint32(0) as a sentinel (the index's runs do).
const maxRefs = 1<<31 - 1

// Table interns segment IDs into dense uint32 refs in first-seen order,
// append-only until Reset, storing each ID once; its index is the one
// string-keyed map of per-segment state. Everything else known about a
// segment is a row of some owner's Column at its ref: one Table per
// disclosure.Tracker serves both fingerprint databases, the decision cache
// and the TDM registry. Refs stay in the process (stripes hash the ID,
// images name it). Its lock is a leaf; the zero value is empty.
type Table struct {
	mu    sync.RWMutex
	index map[ID]uint32
	ids   Column[ID]
	n     atomic.Uint32 // written under mu, after the ID
}

// Intern returns id's ref, issuing the next one if id is new.
func (t *Table) Intern(id ID) uint32 {
	if r, ok := t.Lookup(id); ok {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.index[id]; ok {
		return r
	}
	r := t.n.Load()
	if r >= maxRefs {
		panic("segment: ref space exhausted") // every ref retains its ID: memory runs out first
	}
	if t.index == nil {
		t.index = make(map[ID]uint32)
	}
	*t.ids.Make(r) = id
	t.index[id] = r
	t.n.Store(r + 1)
	return r
}

// Lookup returns id's ref without interning it.
func (t *Table) Lookup(id ID) (uint32, bool) {
	t.mu.RLock()
	r, ok := t.index[id]
	t.mu.RUnlock()
	return r, ok
}

// ID returns the ID of ref, which must have been issued. It takes no lock:
// an ID is written before its ref is published and never changes.
func (t *Table) ID(ref uint32) ID { return *t.ids.At(ref) }

// Len returns the number of refs issued.
func (t *Table) Len() int { return int(t.n.Load()) }

// Reset forgets every ID. Every owner's rows must be emptied with it (a
// state restore replaces all of them), with nothing using the table.
func (t *Table) Reset() {
	t.mu.Lock()
	t.index = nil
	t.n.Store(0)
	t.ids.Reset()
	t.mu.Unlock()
}

const (
	pageBits = 10 // 1024 rows a page
	pageMask = 1<<pageBits - 1
)

type page[T any] [1 << pageBits]T

// Column is one owner's per-segment state: rows indexed by ref in
// fixed-size pages, each made with its first row, so a column costs nothing
// until used and never copies a row (only its page directory doubles). It
// synchronises page creation only: the owner guards each row with its own
// lock, under which a reader also sees the row's page. The zero value is
// empty.
type Column[T any] struct {
	mu    sync.Mutex
	pages atomic.Pointer[[]atomic.Pointer[page[T]]]
}

// At returns row i, or nil if its page was never made (the row is zero).
func (c *Column[T]) At(i uint32) *T {
	if dir := c.pages.Load(); dir != nil && int(i>>pageBits) < len(*dir) {
		if p := (*dir)[i>>pageBits].Load(); p != nil {
			return &p[i&pageMask]
		}
	}
	return nil
}

// Make returns row i, making its page first if needed.
func (c *Column[T]) Make(i uint32) *T {
	if row := c.At(i); row != nil {
		return row
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var dir []atomic.Pointer[page[T]]
	if d := c.pages.Load(); d != nil {
		dir = *d
	}
	if k := int(i >> pageBits); k >= len(dir) {
		grown := make([]atomic.Pointer[page[T]], max(k+1, 2*len(dir)))
		for j := range dir {
			grown[j].Store(dir[j].Load())
		}
		dir = grown
		c.pages.Store(&grown)
	}
	p := dir[i>>pageBits].Load()
	if p == nil {
		p = new(page[T])
		dir[i>>pageBits].Store(p)
	}
	return &p[i&pageMask]
}

// Reset drops every page; nothing else may use the column meanwhile.
func (c *Column[T]) Reset() {
	c.mu.Lock()
	c.pages.Store(nil)
	c.mu.Unlock()
}
