package segment

import (
	"slices"
	"sync"
	"sync/atomic"
)

// maxRefs bounds the refs a Table issues, so an owner may tag a stored ref
// with the top bit and keep ^uint32(0) as a sentinel (the index's runs do).
const maxRefs = 1<<31 - 1

// indexMinSlots is a Table index's capacity at the first Intern. It grows
// by a quarter before an Intern would take it past three quarters full, so
// an index that has grown is about 60–75 % full: 5–7 B per segment.
const indexMinSlots = 16

// Table interns segment IDs into dense uint32 refs in first-seen order,
// append-only until Reset, storing each ID once. Its index is an
// open-addressed table of 4-byte slots, each ref+1 (0 is free): a probe
// starts at the ID's partition key (Key) after one multiply, reduced to
// the capacity by a multiply-shift, so the capacity need not be a power
// of two, steps linearly, and stops at the slot whose ref names the ID.
// The multiply matters: a partition node holds the IDs of one contiguous
// range of keys, which the reduction alone would crowd into that share of
// the slots. Everything else known about a segment is a row of some
// owner's Column at its ref: one Table per disclosure.Tracker serves both
// fingerprint databases, the decision cache and the TDM registry. Refs
// stay in the process (stripes hash the ID, images name it). Its lock is
// a leaf; the zero value is empty.
type Table struct {
	mu    sync.RWMutex
	index []uint32 // made at the first Intern
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
	i, found := t.probe(id)
	if found {
		return t.index[i] - 1
	}
	r := t.n.Load()
	if r >= maxRefs {
		panic("segment: ref space exhausted") // every ref retains its ID: memory runs out first
	}
	*t.ids.Make(r) = id
	if int(r) >= len(t.index)*3/4 {
		t.grow()
		i, _ = t.probe(id)
	}
	t.index[i] = r + 1
	t.n.Store(r + 1)
	return r
}

// Lookup returns id's ref without interning it.
func (t *Table) Lookup(id ID) (uint32, bool) {
	t.mu.RLock()
	i, found := t.probe(id)
	r := uint32(0)
	if found {
		r = t.index[i] - 1
	}
	t.mu.RUnlock()
	return r, found
}

// probe returns id's slot and true, or the free slot that ends its probe
// sequence and false (-1 while the index is unmade). Caller holds mu.
func (t *Table) probe(id ID) (int, bool) {
	if len(t.index) == 0 {
		return -1, false
	}
	for i := t.home(Key(id)); ; {
		s := t.index[i]
		if s == 0 {
			return i, false
		}
		if t.ID(s-1) == id {
			return i, true
		}
		if i++; i == len(t.index) {
			i = 0
		}
	}
}

// home is the first probe position of an ID whose key is k.
func (t *Table) home(k uint32) int { return int(uint64(k*0x9e3779b1) * uint64(len(t.index)) >> 32) }

// grow re-homes every ref into an index a quarter larger, or as much
// larger as the allocator's size class for that many slots leaves room
// for: the rounding is retained either way. Caller holds mu for writing.
func (t *Table) grow() {
	old := t.index
	t.index = slices.Grow([]uint32(nil), max(indexMinSlots, len(old)+len(old)/4))
	t.index = t.index[:cap(t.index)]
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.home(Key(t.ID(s - 1)))
		for t.index[i] != 0 {
			if i++; i == len(t.index) {
				i = 0
			}
		}
		t.index[i] = s
	}
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
