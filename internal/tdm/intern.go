package tdm

import (
	"encoding/binary"
	"slices"
)

// entry is one distinct (label, stored-by) pair, shared by every segment
// that currently carries both: a corpus of 50 k paragraphs ingested from two
// services holds two of these, not 50 k labels. A segment's registry row is
// one uint32 naming its entry (see Registry.rows). All fields are guarded by
// the registry lock.
//
// An entry never escapes the registry (Label, StoredBy and Export hand out
// copies) and is never mutated once interned. Registry mutators build the
// new pair, intern it and move the segment's row to it, so changing one
// segment's label or stored-by set cannot change another's. The tag sets
// inside may be shared between entries and with Service.Confidentiality,
// and a nil set stands for the empty one.
type entry struct {
	label  Label
	stored []string // ascending names of the storing services
	key    string   // canonical key, the index into Registry.interned
	refs   int      // rows naming the entry; freed at zero

	// eff is label.Effective().Sorted(): the tags CheckRelease walks,
	// computed once per entry, so a check neither builds sets nor sorts.
	eff []Tag
}

// appendKey appends the canonical key of the pair (l, stored): the
// explicit, implicit and suppressed sets in that order, each as a count
// followed by its tags in ascending order, then the stored-by names; every
// tag and name is length-prefixed. Equal pairs give equal keys whatever the
// map iteration order or nil-ness of the sets.
func appendKey(buf []byte, l *Label, stored []string) []byte {
	var small [8]Tag
	for _, set := range [...]TagSet{l.explicit, l.implicit, l.suppressed} {
		tags := small[:0]
		for t := range set {
			tags = append(tags, t)
		}
		slices.Sort(tags)
		buf = binary.AppendUvarint(buf, uint64(len(tags)))
		for _, t := range tags {
			buf = binary.AppendUvarint(buf, uint64(len(t)))
			buf = append(buf, t...)
		}
	}
	for _, name := range stored {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// intern returns the index of the entry holding the pair (l, stored),
// adding it on first sight, in a freed slot if there is one. l's tag sets
// become part of the entry and must not be written afterwards; stored, which
// must be ascending, is copied. An intern can grow r.entries, so callers
// hold indexes across it, never entry pointers. Caller holds the registry
// write lock.
func (r *Registry) intern(l Label, stored []string) uint32 {
	r.keyBuf = appendKey(r.keyBuf[:0], &l, stored)
	if i, ok := r.interned[string(r.keyBuf)]; ok {
		return i
	}
	e := entry{label: l, stored: slices.Clone(stored), key: string(r.keyBuf), eff: l.Effective().Sorted()}
	i := uint32(len(r.entries))
	if n := len(r.free); n > 0 {
		i, r.free = r.free[n-1], r.free[:n-1]
		r.entries[i] = e
	} else {
		r.entries = append(r.entries, e)
	}
	r.interned[e.key] = i
	return i
}

// move points row at entry i. The entry the row leaves loses a reference,
// and one nobody references any more is freed: it leaves the map and its
// slot goes on the free list, so custom-tag churn cannot grow the table
// without bound. Caller holds the registry write lock.
func (r *Registry) move(row *uint32, i uint32) {
	r.entries[i].refs++
	if old := *row; old != 0 {
		if e := &r.entries[old-1]; e.refs > 1 {
			e.refs--
		} else {
			delete(r.interned, e.key)
			*e = entry{}
			r.free = append(r.free, old-1)
		}
	}
	*row = i + 1
}

// assign gives row the label l, keeping its stored-by set.
func (r *Registry) assign(row *uint32, l Label) {
	r.move(row, r.intern(l, r.storedNames(row)))
}

// DistinctLabels returns the number of distinct (label, stored-by) pairs
// the registry currently holds — the size of its entry table, which is what
// label memory is proportional to (not the number of segments).
func (r *Registry) DistinctLabels() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.interned)
}
