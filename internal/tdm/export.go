package tdm

import (
	"sort"

	"github.com/lsds/browserflow/internal/segment"
)

// ServiceRecord is the serialisable form of a service.
type ServiceRecord struct {
	Name            string `json:"name"`
	Privilege       []Tag  `json:"privilege"`
	Confidentiality []Tag  `json:"confidentiality"`
}

// LabelRecord is the serialisable form of a segment label.
type LabelRecord struct {
	Seg        segment.ID `json:"seg"`
	Explicit   []Tag      `json:"explicit"`
	Implicit   []Tag      `json:"implicit"`
	Suppressed []Tag      `json:"suppressed"`
	StoredBy   []string   `json:"storedBy"`
}

// TagRecord is the serialisable form of a custom tag allocation.
type TagRecord struct {
	Tag   Tag    `json:"tag"`
	Owner string `json:"owner"`
}

// ExportData is a complete serialisable snapshot of a Registry (the audit
// log is persisted separately).
type ExportData struct {
	Services []ServiceRecord `json:"services"`
	Labels   []LabelRecord   `json:"labels"`
	Tags     []TagRecord     `json:"tags"`
}

// Export snapshots the registry deterministically.
func (r *Registry) Export() ExportData {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var data ExportData
	for _, svc := range r.services {
		data.Services = append(data.Services, ServiceRecord{
			Name:            svc.Name,
			Privilege:       svc.Privilege.Sorted(),
			Confidentiality: svc.Confidentiality.Sorted(),
		})
	}
	sort.Slice(data.Services, func(i, j int) bool { return data.Services[i].Name < data.Services[j].Name })

	// Sized by a first pass: a label record is 112 bytes, and growing the
	// slice by doubling would allocate twice what it ends at.
	n, labels := uint32(r.tab.Len()), 0
	for ref := uint32(0); ref < n; ref++ {
		if row := r.rows.At(ref); row != nil && row.label != nil {
			labels++
		}
	}
	if labels > 0 {
		data.Labels = make([]LabelRecord, 0, labels)
	}
	for ref := uint32(0); ref < n; ref++ {
		row := r.rows.At(ref)
		if row == nil || row.label == nil {
			continue
		}
		label := &row.label.label
		data.Labels = append(data.Labels, LabelRecord{
			Seg:        r.tab.ID(ref),
			Explicit:   label.explicit.Sorted(),
			Implicit:   label.implicit.Sorted(),
			Suppressed: label.suppressed.Sorted(),
			StoredBy:   append([]string(nil), row.storedNames()...),
		})
	}
	sort.Slice(data.Labels, func(i, j int) bool { return data.Labels[i].Seg < data.Labels[j].Seg })

	for tag, owner := range r.tagOwners {
		data.Tags = append(data.Tags, TagRecord{Tag: tag, Owner: owner})
	}
	sort.Slice(data.Tags, func(i, j int) bool { return data.Tags[i].Tag < data.Tags[j].Tag })
	return data
}

// Import replaces the registry's contents with a previously exported
// snapshot. The audit log is untouched. Labels and stored-by sets are
// interned as they load, so a recovered node or a bootstrapped replica
// shares them exactly as the node that ingested the segments does; the
// labels' segments are interned into the registry's segment table, which a
// state restore resets, together with every other owner's rows, first.
func (r *Registry) Import(data ExportData) {
	services := make(map[string]*Service, len(data.Services))
	for _, rec := range data.Services {
		services[rec.Name] = &Service{
			Name:            rec.Name,
			Privilege:       NewTagSet(rec.Privilege...),
			Confidentiality: NewTagSet(rec.Confidentiality...),
		}
	}
	tagOwners := make(map[Tag]string, len(data.Tags))
	for _, rec := range data.Tags {
		tagOwners[rec.Tag] = rec.Owner
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.services = services
	r.tagOwners = tagOwners
	// The compiled fast path, if installed, is derived state: rebuild the
	// privilege rows for the imported world before its labels are interned
	// (interning computes their effective bitsets). The row map is replaced
	// wholesale so services absent from the snapshot do not leave stale
	// rows behind.
	if f := r.fast; f != nil {
		f.priv = make(map[string]Bits, len(r.services))
		for _, svc := range r.services {
			r.fastService(svc)
		}
	}
	r.rows.Reset()
	r.interned = make(map[string]*labelValue)
	r.storedSets = nil
	for _, rec := range data.Labels {
		row := r.rows.Make(r.tab.Intern(rec.Seg))
		for _, name := range rec.StoredBy {
			if svc, ok := services[name]; ok {
				name = svc.Name // one copy of the name, not one per segment
			}
			r.store(row, name)
		}
		r.assign(row, Label{
			explicit:   NewTagSet(rec.Explicit...),
			implicit:   NewTagSet(rec.Implicit...),
			suppressed: NewTagSet(rec.Suppressed...),
		})
	}
}
