package tdm

import (
	"encoding/binary"
	"slices"
)

// labelValue is one distinct label content, shared by every segment that
// currently carries it: a corpus of 50 k paragraphs ingested from two
// services holds two of these, not 50 k labels. All fields are guarded by
// the registry lock.
//
// A value never escapes the registry (Label and Export hand out deep
// copies) and its label is never mutated once interned. Registry mutators
// build the new content, intern it and swap the segment's pointer with
// assign, so changing one segment's label cannot change another's. The tag
// sets inside may be shared between values and with Service.Confidentiality,
// and a nil set stands for the empty one.
type labelValue struct {
	label Label
	key   string // canonical content key, the index into Registry.interned
	refs  int    // segments referencing this value; dropped from the table at zero

	// eff is label.Effective().Sorted(): the tags CheckRelease walks,
	// computed once per value, so a check neither builds sets nor sorts.
	eff []Tag
}

// appendLabelKey appends l's canonical content key: the explicit, implicit
// and suppressed sets in that order, each as a count followed by its tags
// in ascending order, every tag length-prefixed. Equal contents give equal
// keys whatever the map iteration order or nil-ness of the sets.
func appendLabelKey(buf []byte, l *Label) []byte {
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
	return buf
}

// intern returns the shared value with l's content, adding it to the table
// on first sight. l's tag sets become part of the value and must not be
// written afterwards. Caller holds the registry write lock.
func (r *Registry) intern(l Label) *labelValue {
	r.keyBuf = appendLabelKey(r.keyBuf[:0], &l)
	if v, ok := r.interned[string(r.keyBuf)]; ok {
		return v
	}
	v := &labelValue{label: l, key: string(r.keyBuf), eff: l.Effective().Sorted()}
	r.interned[v.key] = v
	return v
}

// assign gives row the label l: l is interned, the row's previous value
// loses a reference, and a value nobody references any more leaves the
// table — custom-tag churn cannot grow it without bound. Caller holds the
// registry write lock.
func (r *Registry) assign(row *segRow, l Label) {
	v := r.intern(l)
	v.refs++
	if old := row.label; old != nil {
		if old.refs--; old.refs == 0 {
			delete(r.interned, old.key)
		}
	}
	row.label = v
}

// store adds service to row's stored-by set.
func (r *Registry) store(row *segRow, service string) {
	names := row.storedNames()
	if i, found := slices.BinarySearch(names, service); !found {
		// Clipped, so the insert copies rather than writing the shared set.
		row.stored = r.internStored(slices.Insert(slices.Clip(names), i, service))
	}
}

// internStored returns the shared stored-by set of the ascending names,
// nil for none. Sets are interned like labels but never dropped: they name
// registered services, and a segment only moves to larger ones.
func (r *Registry) internStored(names []string) *[]string {
	if len(names) == 0 {
		return nil
	}
	r.keyBuf = r.keyBuf[:0]
	for _, name := range names {
		r.keyBuf = binary.AppendUvarint(r.keyBuf, uint64(len(name)))
		r.keyBuf = append(r.keyBuf, name...)
	}
	set, ok := r.storedSets[string(r.keyBuf)]
	if !ok {
		if r.storedSets == nil {
			r.storedSets = make(map[string]*[]string)
		}
		set = new([]string) // not &names: names would then escape on every call
		*set = names
		r.storedSets[string(r.keyBuf)] = set
	}
	return set
}

// DistinctLabels returns the number of distinct label contents the
// registry currently holds — the size of its intern table, which is what
// label memory is proportional to (not the number of segments).
func (r *Registry) DistinctLabels() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.interned)
}
