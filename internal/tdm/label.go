package tdm

// Label is a text segment label (§3.1–3.2). It splits into:
//
//   - explicit tags: assigned by default from the confidentiality label Lc
//     of the service where the segment was first observed, plus custom tags
//     added by users;
//   - implicit tags: tags copied from source segments when the segment was
//     found to disclose their information. Implicit tags mark the segment
//     as *not* the authoritative source and do not propagate further;
//   - suppressed tags: tags a user has declassified for this segment. They
//     are ignored in subset comparisons but remain attached for audit.
//
// A Label in a caller's hands is a private, mutable copy. The labels a
// Registry holds are shared immutable values (see intern.go); Registry.Label
// and Export return deep copies of them.
type Label struct {
	explicit   TagSet
	implicit   TagSet
	suppressed TagSet
}

// NewLabel returns a Label with the given explicit tags.
func NewLabel(explicit ...Tag) *Label {
	return &Label{
		explicit:   NewTagSet(explicit...),
		implicit:   NewTagSet(),
		suppressed: NewTagSet(),
	}
}

// Explicit returns a copy of the explicit tags.
func (l *Label) Explicit() TagSet { return l.explicit.Clone() }

// Implicit returns a copy of the implicit tags.
func (l *Label) Implicit() TagSet { return l.implicit.Clone() }

// Suppressed returns a copy of the suppressed tags.
func (l *Label) Suppressed() TagSet { return l.suppressed.Clone() }

// AddExplicit adds a tag as explicit (default assignment or user custom
// tag).
func (l *Label) AddExplicit(t Tag) { l.explicit.Add(t) }

// RemoveExplicit removes an explicit tag.
func (l *Label) RemoveExplicit(t Tag) { l.explicit.Remove(t) }

// SetImplicit replaces the implicit tag set. BrowserFlow recomputes the
// implicit tags of the segment being edited from its *current* disclosure
// sources (§3.2), which is how outdated tags stop propagating (Figure 6).
func (l *Label) SetImplicit(tags TagSet) { l.implicit = tags.Clone() }

// Suppress marks t as suppressed. It reports whether t was present in the
// label (explicit or implicit); suppressing an absent tag is a no-op
// returning false.
func (l *Label) Suppress(t Tag) bool {
	if !l.explicit.Has(t) && !l.implicit.Has(t) {
		return false
	}
	l.suppressed.Add(t)
	return true
}

// Unsuppress clears a suppression, restoring the tag's effect.
func (l *Label) Unsuppress(t Tag) { l.suppressed.Remove(t) }

// Effective returns the tags that participate in subset comparisons:
// (explicit ∪ implicit) minus suppressed.
func (l *Label) Effective() TagSet {
	return l.explicit.Union(l.implicit).Minus(l.suppressed)
}

// All returns every tag attached to the label, including suppressed ones —
// what an auditor sees.
func (l *Label) All() TagSet {
	return l.explicit.Union(l.implicit).Union(l.suppressed)
}

// Clone returns an independent deep copy.
func (l *Label) Clone() *Label {
	return &Label{
		explicit:   l.explicit.Clone(),
		implicit:   l.implicit.Clone(),
		suppressed: l.suppressed.Clone(),
	}
}

// ReleasableTo reports whether the label permits release to a service with
// privilege label lp, and if not, which tags violate.
func (l *Label) ReleasableTo(lp TagSet) (ok bool, violating []Tag) {
	eff := l.Effective()
	if eff.SubsetOf(lp) {
		return true, nil
	}
	for _, t := range eff.Minus(lp).Sorted() {
		violating = append(violating, t)
	}
	return false, violating
}

// String renders the label as "explicit ∪ implicit (suppressed: ...)".
func (l *Label) String() string {
	s := l.explicit.String()
	if l.implicit.Len() > 0 {
		s += "+" + l.implicit.String()
	}
	if l.suppressed.Len() > 0 {
		s += " (suppressed " + l.suppressed.String() + ")"
	}
	return s
}
