package tdm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/segment"
)

// Common registry errors, exported so callers can match with errors.Is.
var (
	ErrServiceExists   = errors.New("tdm: service already registered")
	ErrServiceUnknown  = errors.New("tdm: unknown service")
	ErrTagExists       = errors.New("tdm: tag already allocated")
	ErrTagUnknown      = errors.New("tdm: tag not allocated")
	ErrNotTagOwner     = errors.New("tdm: user does not own tag")
	ErrTagNotOnSegment = errors.New("tdm: tag not attached to segment")
)

// Service is a cloud service with its TDM label pair (§3.1): the privilege
// label Lp marks the highest level of confidential data the service is
// trusted to receive; the confidentiality label Lc is the default
// confidentiality of data created within it.
type Service struct {
	// Name identifies the service ("wiki", "itool", "docs").
	Name string

	// Privilege is Lp.
	Privilege TagSet

	// Confidentiality is Lc. The registry never changes it after
	// registration: default segment labels alias it (see intern.go).
	Confidentiality TagSet
}

// Registry holds the enterprise-wide TDM state: services, segment labels,
// custom tag ownership, and which services store which segments. It is safe
// for concurrent use.
type Registry struct {
	mu sync.RWMutex

	services  map[string]*Service
	tagOwners map[Tag]string

	// rows holds a row per ref of tab — the segment table of the tracker
	// the registry's engine pairs it with: 0 for an unknown segment, i+1
	// for a segment carrying entries[i]. entries holds the distinct
	// (label, stored-by) pairs the rows name, interned by canonical key
	// (see intern.go); free lists the slots of freed entries. All guarded
	// by mu.
	tab      *segment.Table
	rows     segment.Column[uint32]
	entries  []entry
	interned map[string]uint32
	free     []uint32
	keyBuf   []byte   // intern's key scratch
	names    []string // ObserveSegment's stored-by scratch
	implicit TagSet   // RefreshImplicit's scratch, cleared per call

	auditLog *audit.Log
}

// value returns the label of row's entry, the empty label for an unknown
// segment (row nil or 0). The copy shares the entry's tag sets: read it, or
// replace a set wholesale and hand it to assign — never write through it.
func (r *Registry) value(row *uint32) Label {
	if row == nil || *row == 0 {
		return Label{}
	}
	return r.entries[*row-1].label
}

// storedNames returns the stored-by set of row's entry, nil for an unknown
// segment; never write it.
func (r *Registry) storedNames(row *uint32) []string {
	if row == nil || *row == 0 {
		return nil
	}
	return r.entries[*row-1].stored
}

// NewRegistry returns an empty Registry keeping its per-segment state on
// segs — the tracker's table (disclosure.Tracker.Table) for a registry an
// engine pairs with one; nil gives it a table of its own — and writing to
// auditLog (nil: a private log).
func NewRegistry(segs *segment.Table, auditLog *audit.Log) *Registry {
	if segs == nil {
		segs = &segment.Table{}
	}
	if auditLog == nil {
		auditLog = audit.NewLog()
	}
	return &Registry{
		services:  make(map[string]*Service),
		tagOwners: make(map[Tag]string),
		tab:       segs,
		interned:  make(map[string]uint32),
		implicit:  make(TagSet),
		auditLog:  auditLog,
	}
}

// Table returns the segment table the registry's rows are indexed by.
func (r *Registry) Table() *segment.Table { return r.tab }

// known returns seg's row, nil for an unknown seg. Caller holds r.mu.
func (r *Registry) known(seg segment.ID) *uint32 {
	if ref, ok := r.tab.Lookup(seg); ok {
		if row := r.rows.At(ref); row != nil && *row != 0 {
			return row
		}
	}
	return nil
}

// Audit returns the registry's audit log.
func (r *Registry) Audit() *audit.Log { return r.auditLog }

// RegisterService adds a service with its label pair. The administrator
// performs this once per service.
func (r *Registry) RegisterService(name string, lp, lc TagSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[name]; ok {
		return fmt.Errorf("%w: %s", ErrServiceExists, name)
	}
	svc := &Service{
		Name:            name,
		Privilege:       lp.Clone(),
		Confidentiality: lc.Clone(),
	}
	r.services[name] = svc
	return nil
}

// Service returns a copy of the named service.
func (r *Registry) Service(name string) (Service, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, ok := r.services[name]
	if !ok {
		return Service{}, fmt.Errorf("%w: %s", ErrServiceUnknown, name)
	}
	return Service{
		Name:            svc.Name,
		Privilege:       svc.Privilege.Clone(),
		Confidentiality: svc.Confidentiality.Clone(),
	}, nil
}

// Services returns copies of all registered services, sorted by name.
func (r *Registry) Services() []Service {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Service, 0, len(r.services))
	for _, svc := range r.services {
		out = append(out, Service{
			Name:            svc.Name,
			Privilege:       svc.Privilege.Clone(),
			Confidentiality: svc.Confidentiality.Clone(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ObserveSegment records that seg is stored by service and, if the segment
// has no label yet, assigns it the service's confidentiality label Lc as
// explicit tags (default tag assignment, §3.1). Re-observing a segment its
// service already stores — every keystroke — changes and allocates nothing.
func (r *Registry) ObserveSegment(seg segment.ID, service string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	svc, ok := r.services[service]
	if !ok {
		return fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	row := r.rows.Make(r.tab.Intern(seg))
	names := r.storedNames(row)
	i, found := slices.BinarySearch(names, svc.Name)
	if found {
		return nil
	}
	label := Label{explicit: svc.Confidentiality}
	if *row != 0 {
		label = r.value(row)
	}
	r.names = slices.Insert(append(r.names[:0], names...), i, svc.Name)
	r.move(row, r.intern(label, r.names))
	return nil
}

// UpsertExplicit replaces seg's explicit tag set, creating the label if
// absent and preserving implicit and suppressed tags. This is the shadow
// label mechanism of the partitioned cluster: when a routed observation
// resolves disclosure sources homed on other partitions, their explicit
// tags ride along in the reply and are mirrored here so the subsequent
// RefreshImplicit sees the same source labels a single shared registry
// would. Deliberately not audited — every mutation being mirrored was
// already audited at the source segment's home partition.
func (r *Registry) UpsertExplicit(seg segment.ID, tags []Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row := r.rows.Make(r.tab.Intern(seg))
	label := r.value(row)
	label.explicit = NewTagSet(tags...)
	r.assign(row, label)
}

// Label returns a copy of seg's label, or nil if the segment is unknown.
func (r *Registry) Label(seg segment.ID) *Label {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if row := r.known(seg); row != nil {
		return r.entries[*row-1].label.Clone()
	}
	return nil
}

// RefreshImplicit replaces seg's implicit tags with the union of the
// *explicit* tags of its current disclosure sources (§3.2). Implicit tags of
// the sources are deliberately not copied — a segment that merely disclosed
// information in the past is not the authoritative origin, which is what
// stops outdated tags from propagating (Figure 6). A refresh that computes
// the implicit set the segment already has — the usual keystroke — returns
// without allocating.
func (r *Registry) RefreshImplicit(seg segment.ID, sources []segment.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row := r.known(seg)
	label := r.value(row)
	clear(r.implicit)
	for _, src := range sources {
		for t := range r.value(r.known(src)).explicit {
			// The segment's own explicit tags need not be duplicated as
			// implicit.
			if !label.explicit.Has(t) {
				r.implicit.Add(t)
			}
		}
	}
	if row != nil && len(r.implicit) == len(label.implicit) && r.implicit.SubsetOf(label.implicit) {
		return
	}
	label.implicit = r.implicit.Clone()
	if row == nil {
		row = r.rows.Make(r.tab.Intern(seg))
	}
	r.assign(row, label)
}

// CheckRelease evaluates the §3.1 release condition for seg towards
// service: effective(label) ⊆ Lp. Unknown segments (never observed) carry
// the empty label and are releasable anywhere. It walks the label's
// sorted effective tags against the live privilege label, so an allow
// allocates nothing and a violation names the violating tags sorted and
// unique, as Label.ReleasableTo does.
func (r *Registry) CheckRelease(seg segment.ID, service string) (ok bool, violating []Tag, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, found := r.services[service]
	if !found {
		return false, nil, fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	row := r.known(seg)
	if row == nil {
		return true, nil, nil
	}
	for _, t := range r.entries[*row-1].eff {
		if !svc.Privilege.Has(t) {
			violating = append(violating, t)
		}
	}
	return violating == nil, violating, nil
}

// CheckTags evaluates the release condition for content whose label is
// the tag set tags — ad-hoc text, whose tags are the explicit tags of the
// sources it discloses — towards service, with CheckRelease's answers.
func (r *Registry) CheckTags(tags TagSet, service string) (ok bool, violating []Tag, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, found := r.services[service]
	if !found {
		return false, nil, fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	for t := range tags {
		if !svc.Privilege.Has(t) {
			violating = append(violating, t)
		}
	}
	slices.Sort(violating)
	return violating == nil, violating, nil
}

// CheckSources is CheckTags for ad-hoc content that discloses n sources,
// the i-th named by source(i): its label is the union of their explicit
// tags — the implicit label a new destination segment would receive
// (§3.2) — and unknown sources add nothing. The union is walked under one
// read lock without building a set, so an allow allocates nothing.
func (r *Registry) CheckSources(n int, source func(i int) segment.ID, service string) (ok bool, violating []Tag, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, found := r.services[service]
	if !found {
		return false, nil, fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	for i := 0; i < n; i++ {
		for t := range r.value(r.known(source(i))).explicit {
			if !svc.Privilege.Has(t) {
				violating = append(violating, t)
			}
		}
	}
	slices.Sort(violating)
	violating = slices.Compact(violating)
	return violating == nil, violating, nil
}

// SuppressTag declassifies tag on seg for this propagation (§3.1 "User tag
// suppression"). The suppression is recorded in the audit trail with the
// user and justification. Suppression is case-by-case: it applies to this
// destination segment only, and copying the same source again to a new
// destination requires a fresh suppression.
func (r *Registry) SuppressTag(user string, seg segment.ID, tag Tag, justification string) error {
	r.mu.Lock()
	row := r.known(seg)
	label := r.value(row)
	if !label.explicit.Has(tag) && !label.implicit.Has(tag) {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrTagNotOnSegment, tag, seg)
	}
	if !label.suppressed.Has(tag) {
		label.suppressed = label.suppressed.Clone().Add(tag)
		r.assign(row, label)
	}
	r.mu.Unlock()

	r.auditLog.Append(audit.Entry{
		User:          user,
		Action:        audit.ActionSuppress,
		Tag:           string(tag),
		Segment:       string(seg),
		Justification: justification,
	})
	return nil
}

// AllocateTag reserves a new custom tag owned by user (§3.1 "Custom tag
// allocation").
func (r *Registry) AllocateTag(user string, tag Tag) error {
	r.mu.Lock()
	if _, ok := r.tagOwners[tag]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTagExists, tag)
	}
	r.tagOwners[tag] = user
	r.mu.Unlock()

	r.auditLog.Append(audit.Entry{
		User:   user,
		Action: audit.ActionAllocate,
		Tag:    string(tag),
	})
	return nil
}

// TagOwner returns the user that allocated tag.
func (r *Registry) TagOwner(tag Tag) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	owner, ok := r.tagOwners[tag]
	return owner, ok
}

// AddTagToSegment attaches a previously allocated custom tag to seg's
// explicit label. Per §3.1, every service that *already stores* the segment
// automatically receives the tag in its privilege label, so that the TDM
// does not restrict propagation of text those services already hold
// (Figure 5, step 4).
func (r *Registry) AddTagToSegment(user string, seg segment.ID, tag Tag) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, ok := r.tagOwners[tag]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTagUnknown, tag)
	}
	if owner != user {
		return fmt.Errorf("%w: %s owned by %s", ErrNotTagOwner, tag, owner)
	}
	row := r.rows.Make(r.tab.Intern(seg))
	label := r.value(row)
	if !label.explicit.Has(tag) {
		label.explicit = label.explicit.Clone().Add(tag)
	}
	r.assign(row, label)
	for _, svcName := range r.storedNames(row) {
		if svc, ok := r.services[svcName]; ok {
			svc.Privilege.Add(tag)
		}
	}
	return nil
}

// GrantTag adds a custom tag to a service's privilege label. Only the tag's
// owner controls which services may process data protected with it.
func (r *Registry) GrantTag(user string, service string, tag Tag) error {
	if err := r.mutatePrivilege(user, service, tag, true); err != nil {
		return err
	}
	r.auditLog.Append(audit.Entry{
		User:    user,
		Action:  audit.ActionGrant,
		Tag:     string(tag),
		Service: service,
	})
	return nil
}

// RevokeTag removes a custom tag from a service's privilege label.
func (r *Registry) RevokeTag(user string, service string, tag Tag) error {
	if err := r.mutatePrivilege(user, service, tag, false); err != nil {
		return err
	}
	r.auditLog.Append(audit.Entry{
		User:    user,
		Action:  audit.ActionRevoke,
		Tag:     string(tag),
		Service: service,
	})
	return nil
}

func (r *Registry) mutatePrivilege(user, service string, tag Tag, add bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, ok := r.tagOwners[tag]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTagUnknown, tag)
	}
	if owner != user {
		return fmt.Errorf("%w: %s owned by %s", ErrNotTagOwner, tag, owner)
	}
	svc, ok := r.services[service]
	if !ok {
		return fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	if add {
		svc.Privilege.Add(tag)
	} else {
		svc.Privilege.Remove(tag)
	}
	return nil
}

// StoredBy returns the names of the services currently storing seg, sorted.
func (r *Registry) StoredBy(seg segment.ID) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	stored := r.storedNames(r.known(seg))
	out := make([]string, len(stored))
	copy(out, stored)
	return out
}
